"""Measure a spec: wall-clock, events/sec, peak event-heap.

The measured quantity is the discrete-event engine's throughput —
``Simulator.events_processed`` divided by the ``time.perf_counter``
wall-clock of the run loop — which is what "runs as fast as the
hardware allows" means for a simulator: every protocol optimization
(fewer timer events, cheaper snapshots, leaner emit) shows up either as
fewer events for the same simulated time or as more events per second.

Measured runs use a :class:`~repro.sim.trace.TraceBus` with counting
disabled and no subscribers, so the trace fast path is what production
benchmark runs actually execute.  ``check=True`` adds one *separate*
monitored run (not timed into the headline numbers) that attaches the
full :mod:`repro.validation` suite and reports violations.
"""

from __future__ import annotations

import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.experiments.spec import ExperimentSpec
from repro.sim.engine import Simulator
from repro.sim.trace import TraceBus

#: Schema tag written into every report, bumped on breaking changes.
BENCH_SCHEMA = "repro.bench/v1"

#: Events processed by one calibration pass (see :func:`calibrate`).
CALIBRATION_EVENTS = 50_000


def peak_rss_bytes() -> int:
    """This process's peak resident set size, in bytes.

    Linux reads ``VmHWM`` from ``/proc/self/status``; elsewhere (or in
    restricted containers) it falls back to ``resource.ru_maxrss``.
    Both are process-lifetime high-water marks — monotone across
    repeats and rungs — so the number stamped on a result is "peak RSS
    observed by the end of this measurement", and in an ascending
    ladder the largest rung dominates.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def calibrate(events: int = CALIBRATION_EVENTS) -> float:
    """Events/sec of a null workload: the engine spinning no-op events.

    This measures the host's raw engine throughput with zero protocol
    work, so dividing a scenario's events/sec by it yields a
    *machine-normalized* rate that is comparable across hosts of
    different speeds (same Python implementation).  That is what lets a
    committed baseline gate CI runs on hardware the baseline was never
    recorded on.
    """
    sim = Simulator(seed=0, trace=TraceBus(counting=False))

    def tick() -> None:
        if sim.events_processed < events:
            sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    return sim.events_processed / wall if wall > 0 else 0.0


@dataclass
class BenchResult:
    """One benchmarked spec (best-of-``repeat`` headline numbers)."""

    name: str
    system: str
    seed: int
    duration_ms: float
    nes: int = 0
    mhs: int = 0
    sources: int = 0
    nodes: int = 0
    events: int = 0
    build_s: float = 0.0
    wall_s: float = 0.0
    events_per_sec: float = 0.0
    peak_heap: int = 0
    compactions: int = 0
    deliveries: int = 0
    repeat: int = 1
    wall_s_all: List[float] = field(default_factory=list)
    #: Peak resident set size (bytes) observed by the end of this
    #: measurement — the out-of-heap companion to ``peak_heap``.
    peak_rss: int = 0
    #: Streaming-sink destination and record count when the run was
    #: measured with ``stream_path`` (trace subscribers attached, so
    #: ev/s then includes the serialization cost).
    trace_path: Optional[str] = None
    trace_records: int = 0
    checked: bool = False
    violations: List[str] = field(default_factory=list)
    #: Worker-process count of a sharded measurement (1 = sequential).
    shards: int = 1
    #: Window/sync counters of a sharded measurement (repro.shard).
    shard_stats: Optional[Dict[str, Any]] = None
    #: Sequential-wall / sharded-wall for the same spec, filled by the
    #: ladder when both sides were measured in one invocation.
    speedup: Optional[float] = None
    #: Out-of-band telemetry of the best repeat (``obs=True`` runs);
    #: large, so never embedded in :meth:`to_dict` — the CLI writes
    #: them as separate ``OBS_*`` artifacts.
    obs_report: Optional[Dict[str, Any]] = None
    obs_timeline: Optional[List[Dict[str, Any]]] = None
    #: Raw span-event stream of the best repeat (``spans=True`` runs);
    #: like the obs payloads it is never embedded in :meth:`to_dict` —
    #: the CLI writes it as a separate ``SPANS_*`` artifact.
    span_events: Optional[List[Any]] = None
    #: Compact per-stage mean latency digest of the best repeat
    #: (``{"uplink": ms, ...}``), small enough to embed in the report —
    #: this is what ``bench compare`` diffs across runs.
    span_stages: Optional[Dict[str, float]] = None

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "name": self.name,
            "system": self.system,
            "seed": self.seed,
            "duration_ms": self.duration_ms,
            "nes": self.nes,
            "mhs": self.mhs,
            "sources": self.sources,
            "nodes": self.nodes,
            "events": self.events,
            "build_s": round(self.build_s, 6),
            "wall_s": round(self.wall_s, 6),
            "events_per_sec": round(self.events_per_sec, 1),
            # peak_heap/compactions are always present and meaningful
            # even when compaction never triggered: peak_heap is the
            # heap's true high-water mark (strictly positive for any
            # run that scheduled at all), and compactions==0 then says
            # "never needed", not "not measured".
            "peak_heap": self.peak_heap,
            "peak_rss": self.peak_rss,
            "compactions": self.compactions,
            "deliveries": self.deliveries,
            "repeat": self.repeat,
            "wall_s_all": [round(w, 6) for w in self.wall_s_all],
            "checked": self.checked,
            "violations": list(self.violations),
            "shards": self.shards,
        }
        if self.trace_path is not None:
            out["trace_path"] = self.trace_path
            out["trace_records"] = self.trace_records
        if self.shard_stats is not None:
            out["shard"] = dict(self.shard_stats)
        if self.speedup is not None:
            out["speedup"] = round(self.speedup, 3)
        if self.span_stages is not None:
            out["span_stages"] = {k: round(v, 3)
                                  for k, v in self.span_stages.items()}
        return out


def _populations(net) -> Dict[str, int]:
    # ``nodes`` = NE + MH, matching repro.bench.ladder.node_counts and
    # the documented rung totals; traffic sources are reported apart.
    # The MH count is the declared population: materialized MHs plus
    # the never-materialized remainder of the lazy catchment.
    nes = len(getattr(net, "nes", ()))
    mhs = (len(getattr(net, "mobile_hosts", ()))
           + getattr(net, "catchment_idle", 0))
    sources = len(getattr(net, "sources", ()))
    return {"nes": nes, "mhs": mhs, "sources": sources, "nodes": nes + mhs}


def measure_spec(spec: ExperimentSpec, repeat: int = 1,
                 check: bool = False, shards: int = 1,
                 obs: bool = False, obs_window_ms: Optional[float] = None,
                 progress: bool = False,
                 stream_path: Optional[str] = None,
                 spans: bool = False) -> BenchResult:
    """Benchmark one spec; headline numbers are the fastest repeat.

    Every repeat is a complete fresh build+run (same seed, so the same
    event sequence); best-of-N damps scheduler noise the way
    ``pytest-benchmark``'s min-based OPS does.  ``peak_heap`` is the
    max over *all* repeats (it is seed-determined, so repeats agree —
    reported unconditionally so "no compaction" is never ambiguous).

    ``shards > 1`` measures the same spec on the space-parallel backend
    (:func:`repro.shard.run_sharded`): ``events`` sums every worker's
    engine (replicated control events count per shard, a rounding error
    on data-plane-dominated workloads) and ``wall_s`` is the
    coordinator-observed parallel section.

    ``obs=True`` attaches one :class:`~repro.obs.session.ObsSession`
    per repeat and keeps the best repeat's report/timeline on the
    result; the headline events/sec then *includes* the observability
    overhead, which is exactly what the CI obs-overhead gate compares.
    ``progress=True`` emits wall-clock heartbeats through the same
    hook (usable with or without ``obs``).

    ``stream_path`` streams the full trace to that file (``.gz``
    compressed when the name says so) through a streaming
    :class:`~repro.validation.record.TraceRecorder`, one per repeat
    (each overwrites the last).  The headline events/sec then includes
    the serialization cost — the point is proving the streaming rung
    end to end, not flattering the rate.  Sequential only.

    ``spans=True`` attaches a :class:`~repro.obs.spans.SpanCollector`
    per repeat (sample rate from ``REPRO_SPANS_SAMPLE``) and keeps the
    best repeat's event stream plus a per-stage latency digest on the
    result; headline ev/s then includes the tracing tax, which is what
    the CI spans-overhead gate compares.
    """
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    if shards > 1:
        if stream_path is not None:
            raise ValueError(
                "stream_path is a sequential-measure feature; stream a "
                "sharded run via repro.shard.record_sharded")
        return _measure_sharded(spec, repeat, shards, check, obs=obs,
                                spans=spans)
    from repro.experiments.runner import build_scenario  # lazy: heavy

    attach = obs or progress
    best: Optional[Dict[str, Any]] = None
    best_session = None
    best_spans: Optional[List[Any]] = None
    walls: List[float] = []
    peak_heap = 0
    trace_records = 0
    for _ in range(repeat):
        sim = Simulator(seed=spec.seed, trace=TraceBus(counting=False))
        sink = None
        if stream_path is not None:
            from repro.validation.record import TraceRecorder
            sink = TraceRecorder(sim.trace, path=stream_path)
        collector = None
        if spans:
            from repro.obs.spans import SpanCollector  # lazy: optional layer
            collector = SpanCollector()
            collector.attach(sim.trace, sim=sim)
        t0 = time.perf_counter()
        scenario = build_scenario(spec, sim=sim)
        session = None
        if attach:
            from repro.obs.session import ObsSession  # lazy: optional layer
            session = ObsSession(sim, horizon_ms=spec.duration_ms,
                                 name=spec.name, window_ms=obs_window_ms,
                                 progress=progress)
        t1 = time.perf_counter()
        try:
            scenario.run()
        finally:
            if sink is not None:
                sink.close()
        t2 = time.perf_counter()
        if session is not None:
            session.finish()
        if collector is not None:
            collector.detach()
        if sink is not None:
            trace_records = sink.count
        wall = t2 - t1
        walls.append(wall)
        peak_heap = max(peak_heap, sim.peak_heap)
        rate = sim.events_processed / wall if wall > 0 else 0.0
        if best is None or rate > best["events_per_sec"]:
            best = {
                "build_s": t1 - t0,
                "wall_s": wall,
                "events": sim.events_processed,
                "events_per_sec": rate,
                "compactions": sim.compactions,
                "deliveries": scenario.net.total_app_deliveries(),
                **_populations(scenario.net),
            }
            best_session = session
            if collector is not None:
                best_spans = collector.events

    result = BenchResult(
        name=spec.name,
        system=spec.system,
        seed=spec.seed,
        duration_ms=spec.duration_ms,
        repeat=repeat,
        wall_s_all=walls,
        peak_heap=peak_heap,
        peak_rss=peak_rss_bytes(),
        trace_path=stream_path,
        trace_records=trace_records,
        **best,
    )
    if obs and best_session is not None:
        result.obs_report = best_session.report()
        result.obs_timeline = list(best_session.rows)
    if best_spans is not None:
        result.span_events = best_spans
        result.span_stages = _span_stage_digest(best_spans)
    if check:
        from repro.validation.suite import check_spec  # lazy: optional layer
        checked = check_spec(spec)
        result.checked = True
        result.violations = list(checked.violations)
    return result


def _span_stage_digest(events: List[Any]) -> Dict[str, float]:
    from repro.obs.critpath import critpath_summary, stage_means
    from repro.obs.spans import assemble

    return stage_means(critpath_summary(assemble(events)))


def _measure_sharded(spec: ExperimentSpec, repeat: int,
                     shards: int, check: bool,
                     obs: bool = False, spans: bool = False) -> BenchResult:
    from repro.bench.ladder import node_counts  # lazy: avoid import cycle
    from repro.shard.runtime import run_sharded

    if check:
        raise ValueError(
            "--check is a sequential-run feature; validate a sharded run "
            "by replaying its recorded trace (python -m repro.shard "
            "compare records one)")
    best = None
    walls: List[float] = []
    peak_heap = 0
    for _ in range(repeat):
        res = run_sharded(spec, shards, obs=obs, spans=spans)
        walls.append(res.wall_s)
        peak_heap = max(peak_heap, res.peak_heap)
        if best is None or res.events_per_sec > best.events_per_sec:
            best = res
    pops = node_counts(spec)
    return BenchResult(
        name=spec.name,
        system=spec.system,
        seed=spec.seed,
        duration_ms=spec.duration_ms,
        nes=pops["nes"],
        mhs=pops["mhs"],
        sources=len(spec.workload.source_rates),
        nodes=pops["total"],
        events=best.events,
        build_s=best.build_s,
        wall_s=best.wall_s,
        events_per_sec=best.events_per_sec,
        peak_heap=peak_heap,
        # Coordinator-process high-water mark only; worker RSS lives in
        # the workers and is not aggregated here.
        peak_rss=peak_rss_bytes(),
        compactions=best.compactions,
        deliveries=best.deliveries,
        repeat=repeat,
        wall_s_all=walls,
        shards=shards,
        shard_stats=best.stats_dict(),
        obs_report=best.obs_report,
        obs_timeline=best.obs_timeline,
        span_events=best.span_events,
        span_stages=(_span_stage_digest(best.span_events)
                     if best.span_events is not None else None),
    )


def bench_report(results: Sequence[BenchResult], kind: str, name: str,
                 calibration: Optional[float] = None,
                 extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Assemble the machine-readable ``BENCH_*.json`` payload.

    ``calibration`` (best-of-3 :func:`calibrate` when omitted) stamps
    the host's null-engine throughput into the report and gives every
    entry an ``events_per_sec_norm`` — the machine-normalized rate the
    baseline comparison prefers.  ``extra`` merges additional top-level
    keys (e.g. the ladder's ``obs_overhead`` stamp).
    """
    if calibration is None:
        calibration = max(calibrate() for _ in range(3))
    entries = []
    for r in results:
        entry = r.to_dict()
        if calibration > 0:
            entry["events_per_sec_norm"] = round(
                r.events_per_sec / calibration, 6)
        entries.append(entry)
    report = {
        "schema": BENCH_SCHEMA,
        "kind": kind,
        "name": name,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "calibration_events_per_sec": round(calibration, 1),
        "results": entries,
    }
    if extra:
        report.update(extra)
    return report


def write_report(path: str, report: Dict[str, Any]) -> None:
    """Write a report as stable, diff-friendly JSON."""
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
