"""RingNet benchmark: one command, two workloads, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload steady_xl --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: untraced timed runs on a
silent trace bus for wall-clock figures, then an untimed check run for
the simulated ones.  ``--trace 1`` measures the per-layer metrics: one
untraced run, two runs with layer spans, one call-counting pass and, on
``steady_xl``, two runs of the space-parallel backend.
Either way every metric is printed with its unit, median, quartiles and
sample count, and the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The program is driven only through its public entry points:
``repro.experiments.runner.build_scenario`` -> ``Scenario.start`` and
``Simulator.run`` (what ``Scenario.run`` calls), and
``repro.shard.runtime.run_sharded`` for the space-parallel runs.
``perfbench/README.md`` says what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import itertools
import json
import os
import random
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Where traced runs write their span files (inside the checkout).
OUT_DIR = os.path.join(ROOT, ".perfbench")

from workloads import WORKLOADS, Workload, build_spec  # noqa: E402

#: ``setup_s`` samples as (batches, builds per batch); each sample is
#: the mean build time of one batch timed as a block, so that a
#: roaming_faults build (about 10 ms) is not timed alone.
SETUP_BATCHES = {"steady_xl": (16, 1), "roaming_faults": (16, 16)}

#: Counts every run of one spec and seed must repeat exactly.
OUTCOME_KEYS = ("events", "deliveries", "tombstones", "sends", "peak_heap")

#: :func:`host_probe` time on the host the bounds were set on (2 vCPUs
#: at 2.0 GHz, when it ran fastest); ``deliveries_per_s`` and
#: ``setup_s`` are scaled to a host on which the probe takes this long.
PROBE_REF_S = 0.018

#: Events per slice of a timed run; a host probe follows every slice.
SLICE_EVENTS = 15000

#: Rows of :func:`host_probe`'s table, and how many one probe reads.
TABLE_ROWS, TABLE_READS = 200_000, 10_000
_TABLE: List[Any] = []


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def load_program() -> None:
    """Put the checkout's ``src`` first on the path, or fail loudly."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(
            f"perfbench: no program source at {src}/repro; run from the "
            "root of a full checkout")
    sys.path.insert(0, src)
    import repro
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__},"
                         f" not from {src}")


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single sample is its own quartiles."""
    vals = sorted(values)
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


class Metrics:
    """Named metric samples, reported as median with quartiles."""

    def __init__(self) -> None:
        self.units: Dict[str, str] = {}
        self.samples: Dict[str, List[float]] = {}

    def add(self, name: str, unit: str, *values: float) -> None:
        self.units[name] = unit
        self.samples.setdefault(name, []).extend(float(v) for v in values)

    def report(self) -> Dict[str, Dict[str, Any]]:
        out = {}
        for name, vals in self.samples.items():
            q1, med, q3 = quartiles(vals)
            print(f"  {name:<40} {med:>14.6g} {self.units[name]:<6} "
                  f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(vals)}")
            out[name] = {"value": med, "unit": self.units[name]}
        return out


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile."""
    vals = sorted(samples)
    if not vals:
        raise ValueError("no latency samples")
    pos = (len(vals) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def vmhwm_mib() -> float:
    """Peak resident set of this process, MiB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


class Checks:
    """Self-checks of the measurement; any failure makes it incorrect."""

    def __init__(self) -> None:
        self.failures: List[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)
            print(f"  CHECK FAILED: {what}")

    def same(self, what: str, a: Any, b: Any) -> None:
        self.expect(a == b, f"{what}: {a!r} != {b!r}")


class _ProbeNode:
    """A node of :func:`host_probe`'s toy event loop."""

    __slots__ = ("seen", "peers")

    def __init__(self) -> None:
        self.seen: Dict[int, float] = {}
        self.peers: List["_ProbeNode"] = []


class _ProbeMsg:
    """A short-lived object of :func:`host_probe`'s allocation part."""

    __slots__ = ("src", "dst", "seq", "body")

    def __init__(self, src: int, dst: int, seq: int, body: Any) -> None:
        self.src, self.dst, self.seq, self.body = src, dst, seq, body


def host_probe() -> float:
    """Wall time of a fixed pure-Python workload (about 18 ms).

    Three parts of about equal time, each slowed differently when the
    host is busy: a toy event loop (a heap of tuples, dicts, attribute
    access and calls) that stays in the cache; random reads of a
    200,000-dict table, which miss it, as the simulator does on large
    networks; and objects made and dropped, as messages are.  No one
    part follows both workloads' run loops across the host's slow and
    fast phases; the three together do (``README.md``, "Cost and
    noise").  It uses none of the program's code, so a change to the
    program cannot move it; only the host's speed can.  The table is
    built on the first call; its rows hold only numbers and strings, so
    the garbage collector does not track them.
    """
    if not _TABLE:
        rnd = random.Random(7)
        _TABLE.append([{"a": i, "b": float(i), "c": str(i)}
                       for i in range(TABLE_ROWS)])
        _TABLE.append([rnd.randrange(TABLE_ROWS)
                       for _ in range(TABLE_READS)])
    rows, reads = _TABLE
    nodes = [_ProbeNode() for _ in range(64)]
    for i, node in enumerate(nodes):
        node.peers = [nodes[(i + 1) % 64], nodes[(i + 7) % 64]]
    order = itertools.count()
    heap: List[Tuple[float, int, int, _ProbeNode]] = [
        (0.0, next(order), 0, nodes[0])]
    seq = 0
    t0 = time.perf_counter()
    for _ in range(8000):
        t, _, s, node = heapq.heappop(heap)
        node.seen[s] = t
        if s % 3 == 0:
            for peer in node.peers:
                heapq.heappush(heap, (t + 1.5, next(order), s + 1, peer))
        if len(heap) < 32:
            seq += 3
            heapq.heappush(heap, (t + 0.5, next(order), seq, nodes[seq % 64]))
    total = 0
    for i in reads:
        row = rows[i]
        total += row["a"]
        row["b"] += 1.0
    live: Dict[Tuple[int, int], _ProbeMsg] = {}
    for i in range(9000):
        msg = _ProbeMsg(i & 63, (i * 7) & 63, i, {"k": i, "v": [i, i + 1]})
        live[(msg.src, msg.dst)] = msg
        if len(live) > 512:
            live.clear()
    return time.perf_counter() - t0


def print_violations(violations: Dict[str, int], messages: List[str]) -> None:
    print(f"  violations: {sum(violations.values())} "
          f"{json.dumps(violations, sort_keys=True)}")
    for msg in messages[:8]:
        print(f"    {msg}")


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def outcome(scenario) -> Dict[str, Any]:
    """The counts of :data:`OUTCOME_KEYS` for a finished scenario."""
    net, sim = scenario.net, scenario.sim
    return {
        "events": sim.events_processed,
        "deliveries": net.total_app_deliveries(),
        "tombstones": sum(mh.tombstones for mh in net.mobile_hosts.values()),
        "sends": net.fabric.messages_sent,
        "peak_heap": sim.peak_heap,
    }


def silent_build(spec):
    """Spec -> runnable scenario on a silent bus."""
    from repro.experiments.runner import build_scenario
    from repro.sim.engine import Simulator
    from repro.sim.trace import TraceBus

    sim = Simulator(seed=spec.seed, trace=TraceBus(counting=False))
    return build_scenario(spec, sim=sim)


def setup_time(spec, builds: int) -> Tuple[float, float]:
    """Mean wall time of ``builds`` silent builds timed as one block,
    and the host's slowness around it.

    The slowness is the mean of a :func:`host_probe` just before and
    just after the block, over :data:`PROBE_REF_S`.  A build takes 10
    to 250 ms, so its time follows the host's speed at that moment,
    which on the host the bounds were set on changes by up to 2x within
    seconds.
    """
    before = host_probe()
    gc.collect()
    t0 = time.perf_counter()
    for _ in range(builds):
        silent_build(spec)
    mean_s = (time.perf_counter() - t0) / builds
    return mean_s, (before + host_probe()) / (2.0 * PROBE_REF_S)


def silent_run(spec) -> Dict[str, Any]:
    """Build and run on a silent bus; wall-clock loop time."""
    gc.collect()
    scenario = silent_build(spec)
    t0 = time.perf_counter()
    scenario.run()
    loop_s = time.perf_counter() - t0
    return {"loop_s": loop_s, **outcome(scenario)}


def timed_run(spec) -> Dict[str, Any]:
    """A silent run timed in slices, each scaled to the reference host.

    ``Scenario.run`` is ``start()`` then ``Simulator.run`` to the
    duration; this drives the same calls, stopping every
    :data:`SLICE_EVENTS` events (0.2-0.4 s) for a :func:`host_probe`.
    A slice's time over its slowness (the mean of the probes just
    before and after it, over :data:`PROBE_REF_S`) is its time on the
    reference host; ``ref_s`` sums them.
    """
    gc.collect()
    scenario = silent_build(spec)
    sim, until = scenario.sim, scenario.duration_ms
    loop_s = ref_s = 0.0
    before = host_probe()
    t0 = time.perf_counter()
    scenario.start()
    while True:
        e0 = sim.events_processed
        sim.run(until=until, max_events=SLICE_EVENTS)
        dt = time.perf_counter() - t0
        after = host_probe()
        loop_s += dt
        ref_s += dt * 2.0 * PROBE_REF_S / (before + after)
        if sim.events_processed - e0 < SLICE_EVENTS:
            break
        before = after
        t0 = time.perf_counter()
    return {"loop_s": loop_s, "ref_s": ref_s, **outcome(scenario)}


def check_run(spec) -> Dict[str, Any]:
    """One untimed run with the validation suite and a latency
    collector attached."""
    from repro.metrics.collectors import LatencyCollector
    from repro.validation.suite import observed_scenario, suite_for_spec

    suite = suite_for_spec(spec)
    with observed_scenario(spec, suite) as scenario:
        latency = LatencyCollector(scenario.sim.trace, warmup=spec.warmup_ms)
        scenario.run()
        suite.finish(net=scenario.net, end_time=scenario.sim.now)
    violations = {m.name: len(m.violations) + m.suppressed for m in suite}
    print_violations(violations, suite.all_violations())
    return {"latency": latency.samples, "violations": violations,
            **outcome(scenario)}


def timed_reps(timed: Callable[[], Any], seconds: float) -> List[Any]:
    """Repeat ``timed()`` until its calls add up to ``seconds``."""
    samples: List[Any] = []
    t0 = time.perf_counter()
    while not samples or time.perf_counter() - t0 < seconds:
        samples.append(timed())
    return samples


def end_to_end(workload: Workload, seed: int, seconds: float,
               checks: Checks) -> Tuple[Dict[str, Any], int, int]:
    """``--trace 0``: a warm-up run, timed silent runs, then set-up
    batches and one check run."""
    spec = build_spec(workload, seed)
    metrics = Metrics()
    warm = silent_run(spec)
    # Peak RSS of a silent build and run, before the probe's table and
    # the check run's monitors add to it.
    metrics.add("peak_rss_mib", "MiB", vmhwm_mib())
    runs = timed_reps(lambda: timed_run(spec), seconds)
    batches, builds = SETUP_BATCHES[workload.name]
    setups = [setup_time(spec, builds) for _ in range(batches)]
    metrics.add("deliveries_per_s", "1/s",
                *(r["deliveries"] / r["ref_s"] for r in runs))
    metrics.add("setup_s", "s", *(host_s / slow for host_s, slow in setups))
    print("  on this host: deliveries_per_s "
          f"{statistics.median(r['deliveries'] / r['loop_s'] for r in runs):.6g}"
          f", slowness {statistics.median(r['loop_s'] / r['ref_s'] for r in runs):.3f}"
          f"; setup_s {statistics.median(h for h, _ in setups):.6g} s, "
          f"slowness {statistics.median(s for _, s in setups):.3f}")
    first = {k: warm[k] for k in OUTCOME_KEYS}
    for i, r in enumerate(runs):
        checks.same(f"timed run {i} repeats the warm-up run",
                    {k: r[k] for k in OUTCOME_KEYS}, first)

    chk = check_run(spec)
    checks.same("check run repeats the timed runs",
                {k: chk[k] for k in OUTCOME_KEYS}, first)
    samples = chk["latency"]
    metrics.add("sim_latency_p50_ms", "ms", percentile(samples, 50))
    metrics.add("sim_latency_p95_ms", "ms", percentile(samples, 95))
    print(f"  latency samples: {len(samples)}; p99 "
          f"{percentile(samples, 99):.3f} ms (a per-layer metric)")
    metrics.add("msgs_per_delivery", "count",
                first["sends"] / first["deliveries"])
    metrics.add("delivery_ratio", "ratio", first["deliveries"]
                / (first["deliveries"] + first["tombstones"]))
    # A tombstone and an out-of-order or repeated delivery are both a
    # (message, member) obligation the protocol failed.  Every run of
    # the seed resolves the same obligations, so they are counted once.
    failed = first["tombstones"] + chk["violations"]["total_order"]
    attempted = first["deliveries"] + first["tombstones"]
    checks.expect(attempted > 0, "nothing delivered")
    return metrics.report(), attempted, failed


# ----------------------------------------------------------------------
# Per-layer (traced) runs
# ----------------------------------------------------------------------
def traced_run(spec, recorder, inst, suite=None,
               record=None) -> Dict[str, Any]:
    """One run with layer spans and a counting bus.

    Also collects delivery latencies and the simulated time from every
    crash to the next ``ordered`` record (the token-recovery outage).
    ``suite`` (a validation monitor suite) and ``record`` (a trace
    recorder) are attached before the build when given; they only
    observe, so the run's counts do not change.
    """
    from repro.experiments.runner import build_scenario
    from repro.metrics.collectors import LatencyCollector
    from repro.sim.engine import Simulator
    from repro.sim.trace import TraceBus

    gc.collect()
    sim = Simulator(seed=spec.seed, trace=TraceBus(counting=True))
    crashes: List[float] = []
    outages: List[float] = []

    def on_crash(rec) -> None:
        crashes.append(rec.time)

    def on_ordered(rec) -> None:
        while crashes:
            outages.append(rec.time - crashes.pop())

    sim.trace.subscribe("fault.crash", on_crash)
    sim.trace.subscribe("ordered", on_ordered)
    latency = LatencyCollector(sim.trace, warmup=spec.warmup_ms)
    if suite is not None:
        suite.attach(sim.trace)
    if record is not None:
        record.attach(sim.trace)
    scenario = build_scenario(spec, sim=sim)
    # Counts, spans and heap counters all cover the run loop only.
    built = dict(sim.trace.counts)
    recorder.clear()
    for key in inst.counts:
        inst.counts[key] = 0
    t0 = time.perf_counter()
    scenario.run()
    loop_s = time.perf_counter() - t0
    self_s, span_counts = recorder.self_times()
    net = scenario.net
    if suite is not None:
        suite.finish(net=net, end_time=sim.now)
        suite.detach()
    if record is not None:
        record.detach()
    transport = {"sent": 0, "retransmitted": 0, "duplicates": 0,
                 "gave_up": 0}
    for group in (net.nes, net.mobile_hosts, net.sources):
        for node in group.values():
            chan = getattr(node, "chan", None)
            if chan is not None:
                for key in transport:
                    transport[key] += getattr(chan.stats, key)
    buffers = net.buffer_reports()
    return {
        "loop_s": loop_s,
        "self_s": dict(zip(recorder.names, self_s)),
        "spans": dict(zip(recorder.names, span_counts)),
        "counts": {k: n - built.get(k, 0)
                   for k, n in sim.trace.counts.items()},
        "transport": transport,
        "heap": dict(inst.counts),
        "outage_ms": max(outages, default=0.0),
        "p99_ms": percentile(latency.samples, 99),
        "compactions": sim.compactions,
        "mq_peak": max((b["mq_peak"] for b in buffers), default=0),
        "wq_peak": max((b["wq_peak"] for b in buffers), default=0),
        **outcome(scenario),
    }


def count_py_calls(spec) -> Tuple[int, int]:
    """Python-level calls and events of one run, via ``sys.setprofile``."""
    scenario = silent_build(spec)
    calls = 0

    def profile(frame, event, arg) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        scenario.run()
    finally:
        sys.setprofile(None)
    return calls, scenario.sim.events_processed


def layer_metrics(spec, workload: Workload, metrics: Metrics,
                  checks: Checks, record=None) -> Dict[str, Any]:
    """Per-layer metrics of one sequential spec.

    ``record`` (a trace recorder) rides on the second traced run.
    Returns the untraced run's outcome, with ``failed`` set to the
    obligations the protocol failed.
    """
    from repro.bench.measure import calibrate
    from repro.validation.suite import suite_for_spec
    from spans import LAYERS, Instrumentation, SpanRecorder

    plain = silent_run(spec)
    recorder = SpanRecorder()
    suite = suite_for_spec(spec)
    with Instrumentation(recorder) as inst:
        first = traced_run(spec, recorder, inst)
        os.makedirs(OUT_DIR, exist_ok=True)
        recorder.write(os.path.join(OUT_DIR, f"spans-{workload.name}.bin.gz"))
        second = traced_run(spec, recorder, inst, suite=suite, record=record)
        recorder.clear()
    calls, call_events = count_py_calls(spec)

    checks.same("traced run repeats the untraced run",
                {k: first[k] for k in OUTCOME_KEYS},
                {k: plain[k] for k in OUTCOME_KEYS})
    checks.same("profiled run repeats the untraced run: events",
                call_events, plain["events"])
    for key in ("counts", "spans", "transport", "heap", "outage_ms",
                "p99_ms", "compactions", "mq_peak", "wq_peak") + OUTCOME_KEYS:
        checks.same(f"two traced runs: {key}", first[key], second[key])

    violations = {m.name: len(m.violations) + m.suppressed for m in suite}
    print_violations(violations, suite.all_violations())

    D, E, W = first["deliveries"], first["events"], first["loop_s"]
    counts, spans_n, self_s = first["counts"], first["spans"], first["self_s"]
    layer_self = {layer: sum(self_s[f"{c}.{m}"] for _, c, m in targets)
                  for layer, targets in LAYERS.items()}
    accounted = sum(layer_self.values())
    print(f"  traced loop {W:.3f} s = layer self times {accounted:.3f} s "
          f"+ remainder {W - accounted:.6f} s; untraced loop "
          f"{plain['loop_s']:.3f} s")
    us = 1e6 / D
    for layer, s in layer_self.items():
        print(f"    {layer:<16} {s * us:9.2f} us/delivery "
              f"({100.0 * s / W:5.1f}%)")
    per_delivery = {layer: s * us for layer, s in layer_self.items()}
    heap = first["heap"]
    transport = first["transport"]
    served = spans_n["GapRecoveryMixin.handle_gap_request"]
    unavailable = (spans_n["GapRecoveryMixin.handle_gap_unavailable"]
                   + spans_n["MobileHost._handle_gap_unavailable"])
    handoffs = counts.get("mh.handoff", 0)
    built = counts.get("mma.path_built", 0)
    churn = counts.get("mh.join", 0) + counts.get("mh.leave", 0)
    rate = plain["events"] / plain["loop_s"]

    add = metrics.add
    add("sim_latency_p99_ms", "ms", first["p99_ms"])
    add("sim.events_per_delivery", "count", E / D)
    add("sim.schedules_per_event", "count", heap["schedules"] / E)
    add("sim.cancel_frac", "ratio", heap["cancels"] / heap["schedules"])
    add("sim.peak_heap", "count", first["peak_heap"])
    add("sim.compactions", "count", first["compactions"])
    add("sim.py_calls_per_event", "count", calls / call_events)
    add("sim.self_us_per_delivery", "us", per_delivery["sim"])
    add("sim.events_per_s", "1/s", rate)
    add("sim.events_per_sec_norm", "ratio",
        rate / statistics.median(calibrate() for _ in range(3)))
    add("trace_overhead_frac", "ratio", W / plain["loop_s"] - 1.0)
    add("trace.unaccounted_frac", "ratio", (W - accounted) / W)
    add("trace.emits_per_delivery", "count", spans_n["TraceBus.emit"] / D)
    add("trace.self_us_per_delivery", "us", per_delivery["trace"])
    add("fabric.self_us_per_delivery", "us", per_delivery["fabric"])
    add("fabric.loss_frac", "ratio",
        counts.get("net.loss", 0) / first["sends"])
    add("transport.segments_per_delivery", "count", transport["sent"] / D)
    add("transport.retransmit_frac", "ratio",
        transport["retransmitted"] / transport["sent"])
    add("transport.duplicates", "count", transport["duplicates"])
    add("transport.gave_up", "count", transport["gave_up"])
    add("transport.self_us_per_delivery", "us", per_delivery["transport"])
    add("ne.self_us_per_delivery", "us", per_delivery["ne"])
    add("ordering.msgs_per_hold", "count",
        counts.get("ordered", 0) / max(1, counts.get("token.hold", 0)))
    add("ordering.self_us_per_delivery", "us", per_delivery["ordering"])
    add("delivering.ne_deliveries_per_delivery", "count",
        counts.get("ne.delivered", 0) / D)
    add("delivering.give_ups", "count", counts.get("deliver.give_up", 0))
    add("delivering.self_us_per_delivery", "us", per_delivery["delivering"])
    add("mh.self_us_per_delivery", "us", per_delivery["mh"])
    add("mh.gap_requests", "count", counts.get("mh.gap_request", 0))
    add("gap.requests", "count", counts.get("gap.request", 0))
    add("gap.self_us_per_delivery", "us", per_delivery["gap"])
    add("gap.unavailable_frac", "ratio",
        unavailable / served if served else 0.0)
    add("token_recovery.regenerations", "count",
        counts.get("token.regenerated", 0))
    add("token_recovery.outage_ms", "ms", first["outage_ms"])
    add("token_recovery.self_us_per_delivery", "us",
        per_delivery["token_recovery"])
    add("source.self_us_per_delivery", "us", per_delivery["source"])
    add("faults.self_us_per_delivery", "us", per_delivery["faults"])
    add("mobility.handoffs", "count", handoffs)
    add("mma.paths_built", "count", built)
    add("mma.expired_frac", "ratio",
        counts.get("mma.expired", 0) / built if built else 0.0)
    add("mobility.self_us_per_handoff", "us",
        layer_self["mobility"] * 1e6 / handoffs if handoffs else 0.0)
    add("membership.events", "count", churn)
    add("membership.self_us_per_event", "us",
        layer_self["membership"] * 1e6 / churn if churn else 0.0)
    add("mq.peak", "count", first["mq_peak"])
    add("wq.peak", "count", first["wq_peak"])
    add("validation.violations", "count", sum(violations.values()))
    add("validation.violated_monitors", "count",
        sum(1 for n in violations.values() if n))
    return {**plain,
            "failed": plain["tombstones"] + violations["total_order"]}


def shard_metrics(spec, workload: Workload, metrics: Metrics,
                  checks: Checks, plain: Dict[str, Any],
                  lines: List[str]) -> None:
    """Shard-runtime metrics from two ``run_sharded`` runs.

    The second run records its merged trace, which must equal ``lines``,
    the sequential record of the same spec; both runs must deliver what
    ``plain``, the untraced sequential run, delivered.  ``shard.speedup``
    is the first run's deliveries per second of parallel section over
    ``plain``'s per second of run loop, unscaled, measured seconds
    apart.
    """
    from repro.shard.runtime import run_sharded
    from repro.validation.record import first_divergence

    a = run_sharded(spec, workload.shards)
    b = run_sharded(spec, workload.shards, record=True)
    for key in ("deliveries", "sent", "members"):
        checks.same(f"two sharded runs: {key}", getattr(a, key),
                    getattr(b, key))
    checks.same("sharded run deliveries", a.deliveries, plain["deliveries"])
    div = first_divergence(lines, b.merged_lines or [])
    checks.expect(div is None, "sharded trace diverges from sequential: "
                  + (div.describe() if div is not None else ""))
    checks.same("sharded tombstones", b.trace_counts.get("mh.tombstone", 0),
                plain["tombstones"])
    st = a.stats_dict()
    events = st["shard_events"]
    print(f"  shards: wall {a.wall_s:.3f} s, windows {st['windows']}, "
          f"exports {st['exported']}, barrier wait {st['barrier_wait_s']} s"
          f" of {st['shard_wall_s']} s")
    metrics.add("shard.barrier_wait_frac", "ratio",
                max(w / s for w, s in zip(st["barrier_wait_s"],
                                          st["shard_wall_s"])))
    metrics.add("shard.windows", "count", st["windows"])
    metrics.add("shard.exports_per_delivery", "count",
                st["exported"] / a.deliveries)
    metrics.add("shard.event_imbalance", "ratio", max(events) / min(events))
    metrics.add("shard.stalls", "count", st["window_stalls"])
    metrics.add("shard.rebalance_moves", "count", st["rebalance_moves"])
    metrics.add("shard.speedup", "ratio", (a.deliveries / a.wall_s)
                / (plain["deliveries"] / plain["loop_s"]))


def per_layer(workload: Workload, seed: int,
              checks: Checks) -> Tuple[Dict[str, Any], int, int]:
    """``--trace 1``: per-layer metrics.

    Span wrappers live in this process, so the layers are measured on
    sequential runs.  Where the workload has shard runs, they give the
    ``shard.*`` metrics and are checked against the sequential record of
    the same spec; elsewhere a single engine has no windows, exports or
    barrier wait, and those metrics read 0 (imbalance and speedup 1).
    """
    from repro.validation.record import TraceRecorder

    spec = build_spec(workload, seed)
    metrics = Metrics()
    record = TraceRecorder() if workload.shards else None
    plain = layer_metrics(spec, workload, metrics, checks, record=record)
    if record is not None:
        shard_metrics(spec, workload, metrics, checks, plain, record.lines)
    else:
        for name, unit, value in (
                ("shard.barrier_wait_frac", "ratio", 0.0),
                ("shard.windows", "count", 0),
                ("shard.exports_per_delivery", "count", 0),
                ("shard.event_imbalance", "ratio", 1.0),
                ("shard.stalls", "count", 0),
                ("shard.rebalance_moves", "count", 0),
                ("shard.speedup", "ratio", 1.0)):
            metrics.add(name, unit, value)
    attempted = plain["deliveries"] + plain["tombstones"]
    return metrics.report(), attempted, plain["failed"]


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    load_program()
    workload = WORKLOADS[args.workload]
    checks = Checks()
    print(f"perfbench {workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    if args.trace:
        metrics, attempted, failed = per_layer(workload, args.seed, checks)
    else:
        metrics, attempted, failed = end_to_end(
            workload, args.seed, args.seconds, checks)
    print(f"  attempted {attempted} (message, member) obligations, "
          f"failed {failed} (tombstoned, or out of total order)")
    print(json.dumps({"correct": not checks.failures,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
