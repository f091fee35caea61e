"""Command-line entry point: ``python -m repro.shard``.

Subcommands
-----------
* ``partition NAME --shards K`` — show (or ``--json``-dump) the shard
  plan for a registry scenario: per-shard weights, cut edges, lookahead.
* ``run NAME --shards K`` — execute the scenario on K worker processes
  and print the window/synchronization statistics; ``--record FILE``
  writes the merged canonical trace.
* ``compare NAME --shards K[,K2,...]`` — run sequentially and sharded,
  assert the canonical traces are byte-identical (exit 1 otherwise).

``--duration`` / ``--seed`` / ``--set`` mean the same thing as in
``python -m repro.experiments``.

Examples
--------
::

    python -m repro.shard partition quickstart --shards 4
    python -m repro.shard run churn_heavy --shards 2 --duration 4000
    python -m repro.shard compare failure_drill --shards 2,4
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.shard.partition import (cut_edges, latency_matrix, lookahead_of,
                                   min_lookahead, partition_spec)
from repro.shard.runtime import run_sharded


def _spec(args: argparse.Namespace):
    from repro.experiments.__main__ import spec_for_args
    return spec_for_args(args)


def _observed_loads(path: str, scenario: str,
                    n_shards: int) -> Optional[list]:
    """Per-shard event counts from a ``BENCH_*.json`` sharded entry.

    Prefers an entry whose name mentions the scenario; falls back to
    any entry measured at the same shard count.
    """
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    candidates = []
    for entry in report.get("results") or []:
        stats = entry.get("shard") or {}
        events = stats.get("shard_events")
        if entry.get("shards") == n_shards and events:
            candidates.append((str(entry.get("name", "")), events))
    for name, events in candidates:
        if scenario in name:
            return events
    return candidates[0][1] if candidates else None


# ----------------------------------------------------------------------
def cmd_partition(args: argparse.Namespace) -> int:
    from repro.experiments.runner import build_scenario

    spec = _spec(args)
    plan = partition_spec(spec, args.shards)
    scenario = build_scenario(spec)
    cut = cut_edges(scenario.net.fabric, plan)
    lookahead = lookahead_of(cut)
    wireless = getattr(scenario.net, "wireless", None)
    matrix = latency_matrix(
        scenario.net.fabric, plan,
        wireless_floor=wireless.latency if wireless is not None else None)
    observed = (_observed_loads(args.bench_report, spec.name, args.shards)
                if args.bench_report else None)
    if args.json:
        payload = plan.to_dict()
        payload["cut_edges"] = [list(edge) for edge in cut]
        payload["lookahead_ms"] = None if lookahead == float("inf") \
            else lookahead
        payload["lookahead_matrix_ms"] = [
            [None if v == float("inf") else v for v in row]
            for row in matrix]
        if observed is not None:
            payload["observed_events"] = list(observed)
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    print(f"{spec.name}: {len(plan.shard_of)} nodes -> "
          f"{plan.n_shards} shards")
    for shard in range(plan.n_shards):
        brs = sorted(br for br, s in plan.subtree_shard.items() if s == shard)
        line = (f"  shard {shard}: weight={plan.weights[shard]:4d}  ")
        if observed is not None and shard < len(observed):
            line += f"observed_events={observed[shard]:,}  "
        line += f"subtrees={', '.join(brs) if brs else '(empty)'}"
        print(line)
    if observed is not None:
        lo, hi = min(observed), max(observed)
        print(f"  observed balance: {hi / lo:.2f}x max/min"
              if lo else "  observed balance: n/a (empty shard)")
    print(f"  cut edges: {len(cut)}  lookahead floor: "
          f"{'unbounded' if lookahead == float('inf') else f'{lookahead}ms'}"
          f"  matrix min: {min_lookahead(matrix)}ms")
    return 0


def _print_shard_table(result) -> None:
    """Per-shard observability lines: events, stalls by cause, barrier
    wait, export-queue peak."""
    if not result.shard_events:
        return
    print("  per shard:")
    for i, events in enumerate(result.shard_events):
        stalls = (result.stalled_windows[i]
                  if i < len(result.stalled_windows) else 0)
        causes = (result.stall_causes[i]
                  if i < len(result.stall_causes) else {})
        cause_txt = ", ".join(f"{k}={v}" for k, v in sorted(causes.items()))
        barrier = (result.barrier_wait_s[i]
                   if i < len(result.barrier_wait_s) else 0.0)
        exq = (result.export_q_peaks[i]
               if i < len(result.export_q_peaks) else 0)
        print(f"    shard {i}: events={events:,}  stalls={stalls}"
              f"{' (' + cause_txt + ')' if cause_txt else ''}  "
              f"barrier_wait={barrier:.3f}s  export_q_peak={exq}")


def cmd_run(args: argparse.Namespace) -> int:
    spec = _spec(args)
    result = run_sharded(spec, args.shards, record=args.record is not None,
                         obs=args.obs is not None)
    stats = result.stats_dict()
    for key, value in stats.items():
        print(f"  {key}: {value}")
    _print_shard_table(result)
    if args.record is not None:
        with open(args.record, "w", encoding="utf-8") as fh:
            for line in result.merged_lines or []:
                fh.write(line + "\n")
        print(f"wrote {len(result.merged_lines or [])} records "
              f"to {args.record}")
    if args.obs is not None and result.obs_report is not None:
        from repro.obs.session import write_artifacts
        name = (spec.name if result.n_shards == 1
                else f"{spec.name}@{result.n_shards}shards")
        paths = write_artifacts(result.obs_report, result.obs_timeline or [],
                                out_dir=args.obs, name=name)
        print(f"wrote {paths['report']}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.validation.record import first_divergence, record_spec

    spec = _spec(args)
    shard_counts = [int(k) for k in str(args.shards).split(",")]
    print(f"recording {spec.name} sequentially ...", flush=True)
    seq = record_spec(spec)
    print(f"  {seq.count} records")
    status = 0
    for k in shard_counts:
        print(f"recording {spec.name} with {k} shards ...", flush=True)
        result = run_sharded(spec, k, record=True)
        div = first_divergence(seq.lines, result.merged_lines or [])
        if div is None:
            print(f"  shards={k}: byte-identical "
                  f"({len(result.merged_lines or [])} records, "
                  f"{result.windows} windows, "
                  f"{sum(result.stalled_windows)} stalls)")
        else:
            status = 1
            print(f"  shards={k}: DIVERGED at {div.describe()}")
    return status


# ----------------------------------------------------------------------
def _add_spec_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("scenario", help="registry scenario name")
    p.add_argument("--duration", type=float, default=None, metavar="MS")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="dotted-path spec override, repeatable")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.shard",
        description="space-parallel simulation: partition, run, compare",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_part = sub.add_parser("partition", help="show the shard plan")
    _add_spec_args(p_part)
    p_part.add_argument("--shards", type=int, default=2, metavar="K")
    p_part.add_argument("--json", action="store_true",
                        help="dump the full plan as JSON")
    p_part.add_argument("--bench-report", default=None, metavar="FILE",
                        dest="bench_report",
                        help="BENCH_*.json with a sharded entry at the "
                             "same shard count: print observed per-shard "
                             "event loads next to the node-count weights")
    p_part.set_defaults(fn=cmd_partition)

    p_run = sub.add_parser("run", help="run on K worker processes")
    _add_spec_args(p_run)
    p_run.add_argument("--shards", type=int, default=2, metavar="K")
    p_run.add_argument("--record", default=None, metavar="FILE",
                       help="write the merged canonical trace (JSONL)")
    p_run.add_argument("--obs", nargs="?", const=".", default=None,
                       metavar="DIR",
                       help="attach per-worker out-of-band telemetry "
                            "(repro.obs) and write the assembled "
                            "OBS_<name>.json + timeline to DIR "
                            "(default: cwd)")
    p_run.set_defaults(fn=cmd_run)

    p_cmp = sub.add_parser(
        "compare", help="assert sharded trace == sequential trace")
    _add_spec_args(p_cmp)
    p_cmp.add_argument("--shards", default="2", metavar="K[,K2,...]",
                       help="shard counts to verify (default 2)")
    p_cmp.set_defaults(fn=cmd_compare)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
