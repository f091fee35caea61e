"""Command-line entry point: ``python -m repro.bench``.

Subcommands
-----------
* ``run NAME`` — benchmark one registry scenario; writes
  ``BENCH_<NAME>.json``.
* ``ladder`` — benchmark the pinned NE/MH scaling ladder; writes
  ``BENCH_ladder.json``.
* ``compare CURRENT BASELINE`` — flag events/sec regressions between
  two reports.

``run`` and ``ladder`` accept ``--baseline FILE`` to compare in the
same invocation.  Exit codes: 0 ok, 1 regression beyond the threshold,
2 usage error, 3 ``--check`` found protocol-invariant violations.

Examples
--------
::

    python -m repro.bench ladder --repeat 3 --check
    python -m repro.bench run churn_heavy --duration 5000 --repeat 2
    python -m repro.bench ladder --rungs xs,s --baseline BENCH_ladder.json
    python -m repro.bench compare BENCH_ladder.json old/BENCH_ladder.json
"""

from __future__ import annotations

import argparse
import json
import sys
from statistics import median
from typing import List, Optional, Sequence

from repro.bench.compare import (DEFAULT_MEM_THRESHOLD, DEFAULT_THRESHOLD,
                                 compare_reports)
from repro.bench.ladder import (DEFAULT_RUNGS, get_rung, node_counts,
                                rung_names, rung_spec)
from repro.bench.measure import (BenchResult, bench_report, measure_spec,
                                 write_report)


def _print_result(r: BenchResult) -> None:
    line = (f"{r.name:12s} nodes={r.nodes:7d} events={r.events:9d} "
            f"wall={r.wall_s:7.3f}s  {r.events_per_sec:12,.0f} ev/s  "
            f"peak_heap={r.peak_heap} "
            f"peak_rss={r.peak_rss / (1 << 20):.0f}MiB")
    if r.trace_path is not None:
        line += f"  streamed={r.trace_records} records"
    if r.shard_stats is not None:
        line += (f"  windows={r.shard_stats['windows']} "
                 f"stalls={r.shard_stats['window_stalls']}")
    if r.speedup is not None:
        line += f"  speedup={r.speedup:.2f}x"
    if r.checked:
        line += ("  check=ok" if not r.violations
                 else f"  check={len(r.violations)} VIOLATIONS")
    print(line, flush=True)


def _print_comparison(cmp, threshold: float, current_label: str,
                      baseline_label: str) -> int:
    """Report a comparison; returns the exit status (0 ok, 1 regressed)."""
    print(f"comparing on {cmp.metric}")
    for delta in cmp.deltas:
        marker = "REGRESSION " if delta.regressed(threshold) else ""
        print(f"  {marker}{delta.describe()}")
    if getattr(cmp, "span_tables", None):
        from repro.obs.critpath import render_stage_delta
        for name, rows in cmp.span_tables.items():
            print(f"per-stage latency, {name} (informational):")
            print(render_stage_delta(rows, current_label, baseline_label))
    if getattr(cmp, "shard_tables", None):
        from repro.bench.compare import render_shard_table
        for name, rows in cmp.shard_tables.items():
            print(f"per-shard stall causes, {name} (informational):")
            print(render_shard_table(rows))
    for only in cmp.only_current:
        print(f"  {only}: only in {current_label} (skipped)")
    for only in cmp.only_baseline:
        print(f"  {only}: only in {baseline_label} (skipped)")
    for name in cmp.mem_skipped:
        print(f"  {name}: memory gate skipped (old baseline)")
    if not cmp.ok:
        print(f"FAIL: {len(cmp.regressions)} entries regressed more than "
              f"{threshold:.0%} vs {baseline_label}")
        return 1
    print(f"ok: no regression beyond {threshold:.0%} "
          f"({len(cmp.deltas)} entries compared)")
    return 0


def _stream_path(args: argparse.Namespace, name: str) -> Optional[str]:
    """Resolve --stream-trace DIR into DIR/<name>.jsonl.gz (or None)."""
    out_dir = getattr(args, "stream_trace", None)
    if not out_dir:
        return None
    import os
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, f"{name}.jsonl.gz")


def _write_obs(results: List[BenchResult],
               args: argparse.Namespace) -> None:
    """Write each result's OBS_* artifacts when --obs DIR was given."""
    out_dir = getattr(args, "obs", None)
    if not out_dir:
        return
    from repro.obs.session import write_artifacts
    for r in results:
        if r.obs_report is None:
            continue
        paths = write_artifacts(r.obs_report, r.obs_timeline or [],
                                out_dir=out_dir, name=r.name)
        print(f"wrote {paths['report']}")


def _write_spans(results: List[BenchResult],
                 args: argparse.Namespace) -> None:
    """Write each result's SPANS_* artifacts when --spans DIR was given."""
    out_dir = getattr(args, "spans", None)
    if not out_dir:
        return
    import os
    from repro.obs.spans import write_span_events
    os.makedirs(out_dir, exist_ok=True)
    for r in results:
        if r.span_events is None:
            continue
        path = os.path.join(out_dir, f"SPANS_{r.name}.jsonl.gz")
        write_span_events(path, r.span_events)
        print(f"wrote {path} ({len(r.span_events)} span events)")


def _finish(results: List[BenchResult], kind: str, name: str,
            args: argparse.Namespace,
            extra: Optional[dict] = None) -> int:
    report = bench_report(results, kind=kind, name=name, extra=extra)
    out = args.out or f"BENCH_{name}.json"
    write_report(out, report)
    print(f"wrote {out}")

    status = 0
    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        cmp = compare_reports(report, baseline, threshold=args.threshold,
                              mem_threshold=getattr(
                                  args, "mem_threshold",
                                  DEFAULT_MEM_THRESHOLD))
        status = _print_comparison(cmp, args.threshold, out, args.baseline)
    violations = sum(len(r.violations) for r in results)
    if violations:
        print(f"FAIL: --check found {violations} protocol-invariant "
              f"violations")
        return 3
    return status


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_run(args: argparse.Namespace) -> int:
    # Shared resolver: --duration/--seed/--set mean the same thing as in
    # `python -m repro.experiments` and `python -m repro.validation`.
    from repro.experiments.__main__ import spec_for_args

    spec = spec_for_args(args)
    shards = getattr(args, "shards", 1) or 1
    result = measure_spec(spec, repeat=args.repeat, check=args.check,
                          shards=shards, obs=args.obs is not None,
                          obs_window_ms=args.obs_window,
                          progress=args.progress,
                          stream_path=_stream_path(args, spec.name),
                          spans=args.spans is not None)
    _print_result(result)
    _write_obs([result], args)
    _write_spans([result], args)
    name = spec.name if shards == 1 else f"shard_{spec.name}"
    return _finish([result], kind="run", name=name, args=args)


def cmd_ladder(args: argparse.Namespace) -> int:
    if args.rungs:
        rungs = [get_rung(n) for n in args.rungs.split(",")]
    else:
        # The lazy-population rungs (xxl, metro) are opt-in by name.
        rungs = [get_rung(n) for n in DEFAULT_RUNGS]
    shards = getattr(args, "shards", 1) or 1
    results: List[BenchResult] = []
    overhead: dict = {}
    for rung in rungs:
        spec = rung_spec(rung)
        if args.duration is not None:
            spec = spec.with_overrides({"duration_ms": args.duration})
        pops = node_counts(spec)
        print(f"[{rung.name}] nes={pops['nes']} mhs={pops['mhs']} "
              f"duration={spec.duration_ms:.0f}ms ...", flush=True)
        result = measure_spec(spec, repeat=args.repeat, check=args.check,
                              obs=args.obs is not None,
                              obs_window_ms=args.obs_window,
                              progress=args.progress,
                              stream_path=_stream_path(args, rung.name),
                              spans=args.spans is not None)
        result.name = rung.name  # rung name, not the base scenario's
        results.append(result)
        _print_result(result)
        if args.obs_overhead:
            # Telemetry tax: off/on single-repeat pairs, median of the
            # per-pair ratios.  One best-of-N per side is hostage to
            # host-speed drift between the two measurements; pairing
            # keeps each ratio tight and the median rejects the pairs a
            # noisy neighbour landed on.  Within-pair order alternates
            # so a monotone within-process drift (allocator growth,
            # frequency scaling) cancels instead of always taxing the
            # side measured second.
            pairs = max(3, args.repeat)
            offs, ons, fracs = [], [], []
            for i in range(pairs):
                def _off():
                    return measure_spec(spec, repeat=1)

                def _on():
                    return measure_spec(spec, repeat=1, obs=True,
                                        obs_window_ms=args.obs_window)
                if i % 2:
                    on, off = _on(), _off()
                else:
                    off, on = _off(), _on()
                offs.append(off.events_per_sec)
                ons.append(on.events_per_sec)
                if off.events_per_sec > 0:
                    fracs.append(1.0 - on.events_per_sec
                                 / off.events_per_sec)
            frac = median(fracs) if fracs else 0.0
            overhead[rung.name] = {
                "events_per_sec_off": round(median(offs), 1),
                "events_per_sec_on": round(median(ons), 1),
                "pairs": pairs,
                "overhead_frac": round(frac, 4),
            }
            print(f"  obs overhead: {frac:+.1%} "
                  f"(median of {pairs} off/on pairs)")
        if shards > 1:
            sharded = measure_spec(spec, repeat=args.repeat, shards=shards)
            sharded.name = f"{rung.name}@{shards}shards"
            sharded.speedup = (result.wall_s / sharded.wall_s
                               if sharded.wall_s > 0 else 0.0)
            results.append(sharded)
            _print_result(sharded)
    _write_obs(results, args)
    _write_spans(results, args)
    name = "shard_ladder" if shards > 1 else "ladder"
    return _finish(results, kind="ladder", name=name, args=args,
                   extra={"obs_overhead": overhead} if overhead else None)


def cmd_compare(args: argparse.Namespace) -> int:
    with open(args.current, "r", encoding="utf-8") as fh:
        current = json.load(fh)
    with open(args.baseline_file, "r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    cmp = compare_reports(current, baseline, threshold=args.threshold,
                          mem_threshold=args.mem_threshold)
    return _print_comparison(cmp, args.threshold, args.current,
                             args.baseline_file)


# ----------------------------------------------------------------------
def _add_measure_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shards", type=int, default=1, metavar="K",
                   help="also measure on the space-parallel backend with "
                        "K worker processes (repro.shard); ladder reports "
                        "a per-rung speedup column")
    p.add_argument("--repeat", type=int, default=1,
                   help="fresh build+run repetitions; headline numbers "
                        "are the fastest (default 1)")
    p.add_argument("--check", action="store_true",
                   help="also run once with the validation monitor suite "
                        "attached; exit 3 on violations")
    p.add_argument("--obs", nargs="?", const=".", default=None,
                   metavar="DIR",
                   help="attach out-of-band telemetry (repro.obs) and "
                        "write OBS_<name>.json + timeline artifacts to "
                        "DIR (default: cwd); headline ev/s then includes "
                        "the obs overhead")
    p.add_argument("--spans", nargs="?", const=".", default=None,
                   metavar="DIR",
                   help="attach causal span tracing (repro.obs.spans) and "
                        "write SPANS_<name>.jsonl.gz event streams to DIR "
                        "(default: cwd); the report gains a per-stage "
                        "latency digest (span_stages) and headline ev/s "
                        "then includes the tracing tax; sample rate via "
                        "REPRO_SPANS_SAMPLE")
    p.add_argument("--obs-window", type=float, default=None, metavar="MS",
                   help="timeline window width in simulated ms "
                        "(default: horizon/20)")
    p.add_argument("--progress", action="store_true",
                   help="heartbeat lines (events done, ev/s, ETA) every "
                        "~2 wall seconds on long runs, via the obs hook")
    p.add_argument("--stream-trace", default=None, metavar="DIR",
                   dest="stream_trace",
                   help="stream every measured run's full trace to "
                        "DIR/<name>.jsonl.gz (windowed gzip JSONL, "
                        "byte-identical to an in-memory recording); "
                        "headline ev/s then includes the serialization "
                        "cost; sequential measurements only")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="report path (default BENCH_<name>.json in cwd)")
    p.add_argument("--baseline", default=None, metavar="FILE",
                   help="compare against this report; exit 1 on regression")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                   help="allowed fractional events/sec slowdown "
                        "(default 0.20)")
    p.add_argument("--mem-threshold", type=float,
                   default=DEFAULT_MEM_THRESHOLD, dest="mem_threshold",
                   help="allowed fractional peak-RSS growth vs baseline "
                        "(default 0.50; only gates entries with peak_rss "
                        "on both sides)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="events/sec benchmarks: run, ladder, compare",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="benchmark one registry scenario")
    p_run.add_argument("scenario", help="registry scenario name")
    p_run.add_argument("--duration", type=float, default=None, metavar="MS")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="dotted-path spec override, repeatable")
    _add_measure_args(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_ladder = sub.add_parser(
        "ladder", help="benchmark the pinned scaling ladder")
    p_ladder.add_argument("--rungs", default=None, metavar="NAMES",
                          help=f"comma-separated subset of "
                               f"{','.join(rung_names())} (default: "
                               f"{','.join(DEFAULT_RUNGS)}; the lazy-"
                               f"population rungs xxl/metro are opt-in)")
    p_ladder.add_argument("--duration", type=float, default=None,
                          metavar="MS",
                          help="override every selected rung's pinned "
                               "duration (truncated smoke runs; ev/s is "
                               "a rate, so still baseline-comparable)")
    p_ladder.add_argument("--obs-overhead", action="store_true",
                          help="measure every rung as alternating obs "
                               "off/on pairs (median-of-ratios) and stamp "
                               "the per-rung telemetry tax into the "
                               "report's obs_overhead key")
    _add_measure_args(p_ladder)
    p_ladder.set_defaults(fn=cmd_ladder)

    p_cmp = sub.add_parser("compare", help="diff two bench reports")
    p_cmp.add_argument("current", help="current BENCH_*.json")
    p_cmp.add_argument("baseline_file", metavar="baseline",
                       help="baseline BENCH_*.json")
    p_cmp.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                       help="allowed fractional slowdown (default 0.20)")
    p_cmp.add_argument("--mem-threshold", type=float,
                       default=DEFAULT_MEM_THRESHOLD, dest="mem_threshold",
                       help="allowed fractional peak-RSS growth "
                            "(default 0.50)")
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
