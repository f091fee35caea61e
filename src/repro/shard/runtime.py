"""The conservative window runtime: K worker processes, one coordinator.

Execution model (bulk-synchronous conservative PDES):

* Every worker **builds the full scenario** from the spec — build is
  deterministic, so replicas agree on all structural state — then masks
  execution to the entities its shard owns (the engine gate drops
  non-local events at schedule time, the fabric suppresses non-local
  sends, the trace gate silences non-local emissions).
* **Control-plane events** (topology maintenance, crash schedules,
  mobility and churn decisions) carry ``owner=None`` and run
  *replicated* in every shard, keeping shared structural state —
  hierarchy, liveness flags, ownership map — identical everywhere
  without any cross-shard state transfer.
* **Data-plane events** run only on their owner's shard.  A message to
  a remote node is exported with the arrival time and causal key the
  sequential engine would have used, batched per destination shard,
  and imported into the destination's heap at the next
  synchronization.
* Workers advance behind **per-shard grants** derived from the
  cut-latency matrix ``L[j][i]`` (:func:`repro.shard.partition
  .latency_matrix`): shard *i* may run to ``min_j(lb_j + L[j][i])``
  where ``lb_j`` lower-bounds anything shard *j* can still send.  The
  bounds are closed under multi-hop influence (a Bellman–Ford
  relaxation over the matrix), so a shard stalls only on the links
  that can actually reach it — not on the fastest link anywhere in the
  fabric.  The coordinator grants asynchronously per shard; a shard
  whose bound has not moved is simply not answered until it has.
* Events registered as **probes** (churn ticks, token-holder crashes)
  need globally-gathered inputs: every shard pauses exactly at the
  probe's ``(time, key)``, the coordinator merges the per-shard
  gathers, and the event then executes replicated with identical
  inputs.
* Ownership is fixed for the whole run: an MH that hands off to an AP
  on another shard stays with its initial shard, and its wireless
  traffic crosses the cut like any other export (the latency matrix's
  wireless floor bounds it).

``shards=1`` bypasses all of this and runs the plain sequential engine
— the exact code path every non-sharded caller uses — so non-sharded
behaviour cannot drift behind the parallel backend's back.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.spec import ExperimentSpec
from repro.shard.context import ShardContext
from repro.shard.partition import (PartitionPlan, latency_matrix,
                                   min_lookahead, partition_spec)
from repro.shard.record import KeyedRecorder, merge_streams

_INF = float("inf")


@dataclass
class ShardRunResult:
    """Aggregate outcome of one sharded run."""

    n_shards: int
    lookahead: float
    horizon: float
    #: Per-shard-pair lookahead matrix (``None`` for sequential runs).
    lookahead_matrix: Optional[List[List[float]]] = None
    windows: int = 0
    windows_per_shard: List[int] = field(default_factory=list)
    probe_syncs: int = 0
    events: int = 0
    shard_events: List[int] = field(default_factory=list)
    shard_walls: List[float] = field(default_factory=list)
    stalled_windows: List[int] = field(default_factory=list)
    stall_causes: List[Dict[str, int]] = field(default_factory=list)
    barrier_wait_s: List[float] = field(default_factory=list)
    export_q_peaks: List[int] = field(default_factory=list)
    exported: int = 0
    peak_heap: int = 0
    compactions: int = 0
    deliveries: int = 0
    sent: int = 0
    members: int = 0
    build_s: float = 0.0
    wall_s: float = 0.0
    trace_counts: Dict[str, int] = field(default_factory=dict)
    merged_lines: Optional[List[str]] = None
    #: Assembled obs run report / timeline rows (``obs=True`` runs only).
    obs_report: Optional[Dict[str, Any]] = None
    obs_timeline: Optional[List[Dict[str, Any]]] = None
    #: Merged span events across shards (``spans=True`` runs only);
    #: assemble with :func:`repro.obs.spans.assemble`.
    span_events: Optional[List[Tuple]] = None

    @property
    def events_per_sec(self) -> float:
        """Aggregate engine throughput over the parallel section."""
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    def stats_dict(self) -> Dict[str, Any]:
        """Machine-readable summary (bench reports embed this)."""
        matrix = None
        if self.lookahead_matrix is not None:
            matrix = [[None if v == _INF else v for v in row]
                      for row in self.lookahead_matrix]
        return {
            "shards": self.n_shards,
            "lookahead_ms": self.lookahead if self.lookahead != _INF
            else None,
            "lookahead_matrix_ms": matrix,
            "windows": self.windows,
            "windows_per_shard": list(self.windows_per_shard),
            "probe_syncs": self.probe_syncs,
            "window_stalls": sum(self.stalled_windows),
            "window_stalls_per_shard": list(self.stalled_windows),
            "stall_causes": list(self.stall_causes),
            "barrier_wait_s": [round(b, 6) for b in self.barrier_wait_s],
            "shard_wall_s": [round(w, 6) for w in self.shard_walls],
            "export_queue_peak_per_shard": list(self.export_q_peaks),
            "events": self.events,
            "shard_events": list(self.shard_events),
            "exported": self.exported,
            "peak_heap": self.peak_heap,
            "compactions": self.compactions,
            # Ownership never moves; the key stays because the benchmark
            # (perfbench/run.py) reports it as shard.rebalance_moves.
            "rebalance_moves": 0,
            "deliveries": self.deliveries,
            "wall_s": round(self.wall_s, 6),
            "build_s": round(self.build_s, 6),
            "events_per_sec": round(self.events_per_sec, 1),
        }

    def span_overlays(self) -> Dict[str, Any]:
        """Run-level pseudo-stages for the critpath summary.

        Window-stall time is wall-clock coordination cost, a property
        of the sharded run rather than of any message's logical
        latency, so it reports as an overlay instead of a stage.
        """
        if self.n_shards <= 1:
            return {}
        return {"window_stall": {
            "wall_ms_total": round(sum(self.barrier_wait_s) * 1e3, 3),
            "stalled_windows_per_shard": list(self.stalled_windows),
            "barrier_wait_s_per_shard": [round(b, 6)
                                         for b in self.barrier_wait_s],
        }}


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _bind(ctx: ShardContext, scenario) -> None:
    """Attach the probe gatherers to a built scenario."""
    net = scenario.net

    def membership() -> Dict[str, bool]:
        return {mid: mh.is_member for mid, mh in net.mobile_hosts.items()
                if ctx.is_local(mid)}

    def token_holders() -> List[str]:
        # Consumed by crash_token_holder schedules *and* by fault-plan
        # partitions with an @token_holder_subtree group (the fault
        # driver registers its activation event under this probe kind).
        return [ne.id for ne in net.top_ring_nes()
                if ctx.is_local(ne.id) and ne.held_token is not None]

    ctx.gatherers["churn.membership"] = membership
    ctx.gatherers["token.holders"] = token_holders


def _apply_imports(sim, fabric, imports) -> int:
    for (time_, key, dst, msg) in imports:
        sim.schedule_keyed(time_, key, dst, fabric._arrive, dst, msg)
    return len(imports)


def _windowed_run(sim, ctx: ShardContext, fabric, conn,
                  horizon: float) -> Dict[str, Any]:
    """Drive the engine through coordinator-granted windows."""
    front = 0.0
    windows = stalls = probes = 0
    barrier_wait = 0.0
    stall_causes: Dict[str, int] = {}

    def payload(kind: str) -> Dict[str, Any]:
        return {"t": kind, "front": front,
                "earliest": sim.peek_entry(),
                "exports": ctx.take_outbox()}

    def sync(msg: Dict[str, Any]) -> Dict[str, Any]:
        """One coordinator round trip; every reply carries imports."""
        nonlocal barrier_wait
        conn.send(msg)
        t0 = time.perf_counter()
        reply = conn.recv()
        waited = time.perf_counter() - t0
        barrier_wait += waited
        obs = sim.obs
        if obs is not None:
            obs.observe("shard.barrier_wait_ms", waited * 1e3)
        ctx.imported += _apply_imports(sim, fabric, reply["imports"])
        return reply

    def run_probe(probe) -> None:
        nonlocal probes
        probe_t, probe_k, kind, _ev = probe
        sim.run_window(probe_t, probe_k)
        msg = payload("probe")
        msg["probe"] = (kind, probe_t, probe_k)
        msg["data"] = ctx.gather(kind)
        reply = sync(msg)
        ctx.stash_probe(reply["probe_data"])
        entry = sim.peek_entry()
        if entry != (probe_t, probe_k):  # pragma: no cover - invariant
            raise RuntimeError(f"probe desync: expected {(probe_t, probe_k)}, "
                               f"heap top is {entry}")
        sim.step()
        ctx.pop_probe()
        probes += 1

    while True:
        reply = sync(payload("window"))
        if reply.get("tail"):
            break
        granted = reply["grant"]
        # Probes inside the window are barriers of their own.
        probe = ctx.peek_probe()
        while probe is not None and (probe[0], probe[1]) < (granted, 0):
            run_probe(probe)
            probe = ctx.peek_probe()
        n = sim.run_window(granted)
        front = granted
        windows += 1
        if n == 0:
            stalls += 1
            # Attribute the stall: blocked on a pending probe barrier,
            # genuinely idle (empty heap), or work beyond the granted
            # boundary (partition-quality signal).
            entry = sim.peek_entry()
            if probe is not None and (entry is None
                                      or (probe[0], probe[1]) <= entry):
                cause = "probe"
            elif entry is None:
                cause = "idle"
            else:
                cause = "lookahead"
            stall_causes[cause] = stall_causes.get(cause, 0) + 1
            obs = sim.obs
            if obs is not None:
                obs.inc("shard.stall." + cause)

    # Tail: every live shard sits at the horizon, so only events at
    # exactly t == horizon remain and their exports land beyond it.
    # Probes at the horizon still need their gather exchange.
    while True:
        probe = ctx.peek_probe()
        if probe is not None and probe[0] <= horizon:
            run_probe(probe)
            continue
        sim.run_window(horizon, inclusive=True)
        break

    if sim.now < horizon:
        sim.now = horizon
    return {"windows": windows, "stalls": stalls, "probes": probes,
            "stall_causes": stall_causes, "barrier_wait_s": barrier_wait}


def _worker_main(conn, spec_dict: Dict[str, Any], plan: PartitionPlan,
                 shard_id: int, record: bool, obs: bool = False,
                 spans: bool = False) -> None:
    try:
        from repro.experiments.runner import build_scenario
        from repro.sim.engine import Simulator
        from repro.sim.trace import TraceBus

        spec = ExperimentSpec.from_dict(spec_dict)
        # Unrecorded (benchmark) runs use the same counting=False trace
        # fast path measure_spec's sequential side uses, so speedup
        # ratios compare like with like; recorded runs need counts for
        # the aggregate-equals-sequential cross-check.
        sim = Simulator(seed=spec.seed,
                        trace=TraceBus(counting=record))
        ctx = ShardContext(shard_id, plan, sim)
        sim.shard = ctx
        sim.gate = ctx.is_local
        sim.trace.gate = ctx.emission_gate
        recorder = KeyedRecorder(sim.trace) if record else None
        collector = None
        if spans:
            # The trace gate masks subscriber callbacks to locally-owned
            # records, and transport hooks only fire inside owner-gated
            # events, so each span event lands on exactly one shard —
            # the merged streams equal the sequential collection.
            from repro.obs.spans import SpanCollector
            collector = SpanCollector()
            collector.attach(sim.trace)

        t0 = time.perf_counter()
        scenario = build_scenario(spec, sim=sim)
        build_s = time.perf_counter() - t0
        fabric = scenario.net.fabric
        wireless = getattr(scenario.net, "wireless", None)
        matrix = latency_matrix(
            fabric, plan,
            wireless_floor=wireless.latency if wireless is not None
            else None)
        ctx.lookahead = min_lookahead(matrix)
        ctx.lookahead_to = list(matrix[shard_id])
        _bind(ctx, scenario)

        conn.send({"t": "ready", "build_s": build_s,
                   "lookahead": ctx.lookahead, "matrix": matrix})
        go = conn.recv()
        assert go["t"] == "go"

        session = None
        if obs:
            from repro.obs.session import ObsSession
            session = ObsSession(sim, horizon_ms=spec.duration_ms,
                                 name=f"shard{shard_id}")

        t1 = time.perf_counter()
        scenario.start()
        loop_stats = _windowed_run(sim, ctx, fabric, conn,
                                   horizon=spec.duration_ms)
        wall = time.perf_counter() - t1

        obs_payload = None
        if session is not None:
            session.finish()
            sub_report = session.report()
            sub_report["shard"] = shard_id
            sub_report["shard_windows"] = {
                "stalls": loop_stats["stalls"],
                "stall_causes": loop_stats["stall_causes"],
                "barrier_wait_s": round(loop_stats["barrier_wait_s"], 6),
                "export_q_peak": ctx.export_q_peak,
            }
            obs_payload = {
                "report": sub_report,
                "rows": [dict(r, shard=shard_id) for r in session.rows],
            }

        net = scenario.net
        deliveries = sum(mh.delivered_count
                         for mid, mh in net.mobile_hosts.items()
                         if ctx.is_local(mid))
        members = sum(1 for mid, mh in net.mobile_hosts.items()
                      if ctx.is_local(mid) and mh.is_member)
        sent = sum(src.sent for sid, src in net.sources.items()
                   if ctx.is_local(sid))
        conn.send({
            "t": "done",
            "events": sim.events_processed,
            "wall_s": wall,
            "build_s": build_s,
            "windows": loop_stats["windows"],
            "stalls": loop_stats["stalls"],
            "stall_causes": loop_stats["stall_causes"],
            "barrier_wait_s": loop_stats["barrier_wait_s"],
            "probes": loop_stats["probes"],
            "exported": ctx.exported,
            "export_q_peak": ctx.export_q_peak,
            "obs": obs_payload,
            "spans": collector.events if collector is not None else None,
            "peak_heap": sim.peak_heap,
            "compactions": sim.compactions,
            "deliveries": deliveries,
            "members": members,
            "sent": sent,
            "trace_counts": dict(sim.trace.counts),
            "entries": recorder.entries if recorder is not None else None,
        })
    except BaseException:
        try:
            conn.send({"t": "error", "tb": traceback.format_exc()})
        except Exception:  # pragma: no cover - broken pipe on teardown
            pass
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
def _merge_probe_data(kind: str, datas: List[Any]) -> Any:
    if kind == "churn.membership":
        merged: Dict[str, bool] = {}
        for d in datas:
            merged.update(d)
        return merged
    if kind == "token.holders":
        merged_list: List[str] = []
        for d in datas:
            merged_list.extend(d)
        return merged_list
    raise ValueError(f"unknown probe kind {kind!r}")


def _sequential_result(spec: ExperimentSpec, record: bool,
                       obs: bool = False,
                       spans: bool = False) -> ShardRunResult:
    """The exact sequential engine path, packaged as a 1-shard result."""
    from repro.experiments.runner import build_scenario
    from repro.sim.engine import Simulator
    from repro.sim.trace import TraceBus
    from repro.validation.record import TraceRecorder

    sim = Simulator(seed=spec.seed, trace=TraceBus(counting=record))
    recorder = TraceRecorder(sim.trace) if record else None
    collector = None
    if spans:
        from repro.obs.spans import SpanCollector
        collector = SpanCollector()
        collector.attach(sim.trace)
    t0 = time.perf_counter()
    scenario = build_scenario(spec, sim=sim)
    session = None
    if obs:
        from repro.obs.session import ObsSession
        session = ObsSession(sim, horizon_ms=spec.duration_ms,
                             name=spec.name)
    t1 = time.perf_counter()
    scenario.run()
    t2 = time.perf_counter()
    if session is not None:
        session.finish()
    if recorder is not None:
        recorder.detach()
    if collector is not None:
        collector.detach()
    net = scenario.net
    result = ShardRunResult(
        n_shards=1,
        lookahead=float("inf"),
        horizon=spec.duration_ms,
        events=sim.events_processed,
        shard_events=[sim.events_processed],
        shard_walls=[t2 - t1],
        windows_per_shard=[0],
        stalled_windows=[0],
        stall_causes=[{}],
        barrier_wait_s=[0.0],
        export_q_peaks=[0],
        deliveries=net.total_app_deliveries(),
        peak_heap=sim.peak_heap,
        compactions=sim.compactions,
        sent=scenario.fleet.total_sent,
        members=len(net.member_hosts()),
        build_s=t1 - t0,
        wall_s=t2 - t1,
        trace_counts=dict(sim.trace.counts),
        merged_lines=list(recorder.lines) if recorder is not None else None,
    )
    if session is not None:
        result.obs_report = session.report()
        result.obs_timeline = list(session.rows)
    if collector is not None:
        result.span_events = collector.events
    return result


def _assemble_obs(result: ShardRunResult, spec: ExperimentSpec,
                  obs_per_shard: List[Optional[Dict[str, Any]]]) -> None:
    """Roll per-shard obs payloads into one run report + timeline."""
    from repro.obs.session import OBS_SCHEMA

    payloads = [p for p in obs_per_shard if p is not None]
    if not payloads:  # pragma: no cover - defensive
        return
    reports = [p["report"] for p in payloads]
    result.obs_report = {
        "schema": OBS_SCHEMA,
        "name": spec.name,
        "horizon_ms": spec.duration_ms,
        "window_ms": reports[0].get("window_ms"),
        "windows": max(r.get("windows", 0) for r in reports),
        "events": result.events,
        "wall_s": round(result.wall_s, 6),
        "n_shards": result.n_shards,
        "trace_counts": dict(result.trace_counts),
        "shards": reports,
    }
    result.obs_timeline = sorted(
        (row for p in payloads for row in p["rows"]),
        key=lambda r: (r.get("w", 0), r.get("shard", 0)))


class _Coordinator:
    """Round state for one sharded run: grants and probes.

    The coordinator is message-driven: it receives exactly one payload
    from every shard it has answered, routes its exports immediately,
    and then serves whatever round the stashed payloads allow — a probe
    barrier when *all* live shards parked there, otherwise per-shard
    grants to the window-parked shards whose bound moved.
    """

    def __init__(self, shards: int, horizon: float,
                 matrix: List[List[float]]):
        self.n = shards
        self.horizon = horizon
        self.matrix = matrix
        self.fronts = [0.0] * shards
        self.earliest: List[Optional[Tuple[float, int]]] = [None] * shards
        self.inbound: List[List[Tuple]] = [[] for _ in range(shards)]
        self.inbound_min = [_INF] * shards

    # -- ingestion ------------------------------------------------------
    def ingest(self, i: int, m: Dict[str, Any]) -> None:
        self.fronts[i] = m["front"]
        self.earliest[i] = m["earliest"]
        for dest, batch in m["exports"].items():
            self.inbound[dest].extend(batch)
            first = min(item[0] for item in batch)
            if first < self.inbound_min[dest]:
                self.inbound_min[dest] = first

    def drain(self, i: int) -> List[Tuple]:
        batch, self.inbound[i] = self.inbound[i], []
        self.inbound_min[i] = _INF
        return batch

    # -- grant math -----------------------------------------------------
    def lower_bounds(self) -> List[float]:
        """Earliest time each shard can still influence anyone.

        Base: its earliest unexecuted event or queued inbound arrival.
        Relaxed over the latency matrix (Bellman–Ford) so multi-hop
        wake-up chains — shard k wakes j, j then reaches i sooner than
        j's own events would — are bounded too.
        """
        lb = []
        for j in range(self.n):
            e = self.earliest[j]
            b = e[0] if e is not None else _INF
            if self.inbound_min[j] < b:
                b = self.inbound_min[j]
            lb.append(b)
        mat = self.matrix
        for _ in range(self.n):
            changed = False
            for j in range(self.n):
                row_j = lb[j]
                for k in range(self.n):
                    if k == j:
                        continue
                    c = lb[k] + mat[k][j]
                    if c < row_j:
                        row_j = c
                        changed = True
                lb[j] = row_j
            if not changed:
                break
        return lb

    def grant_for(self, i: int, lb: List[float]) -> float:
        raw = _INF
        mat = self.matrix
        for j in range(self.n):
            if j == i:
                continue
            c = lb[j] + mat[j][i]
            if c < raw:
                raw = c
        grant = min(self.horizon, raw)
        return max(grant, self.fronts[i])


def run_sharded(spec: ExperimentSpec, shards: int,
                record: bool = False, obs: bool = False,
                spans: bool = False) -> ShardRunResult:
    """Run one spec on ``shards`` worker processes.

    ``record=True`` captures every shard's keyed trace stream and
    merges them into :attr:`ShardRunResult.merged_lines` — the stream
    that must be byte-identical to a sequential
    :func:`~repro.validation.record.record_spec` run.

    ``obs=True`` attaches one out-of-band
    :class:`~repro.obs.session.ObsSession` per worker and assembles
    the per-shard reports into :attr:`ShardRunResult.obs_report` /
    :attr:`ShardRunResult.obs_timeline` (rows tagged with ``shard``).
    Because observability never touches the trace stream, ``record``
    and ``obs`` compose freely.

    ``spans=True`` attaches one out-of-band
    :class:`~repro.obs.spans.SpanCollector` per worker; each shard
    collects only the events its gate admits, and the coordinator
    merges the streams into :attr:`ShardRunResult.span_events` in a
    deterministic order (time, event code, fields), so the merged
    stream assembles identically to a sequential collection.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if shards == 1:
        return _sequential_result(spec, record, obs=obs, spans=spans)

    plan = partition_spec(spec, shards)
    mp = multiprocessing.get_context()
    conns = []
    procs = []
    for shard_id in range(shards):
        parent_conn, child_conn = mp.Pipe()
        proc = mp.Process(
            target=_worker_main,
            args=(child_conn, spec.to_dict(), plan, shard_id, record, obs,
                  spans),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        conns.append(parent_conn)
        procs.append(proc)

    result = ShardRunResult(n_shards=shards, lookahead=0.0,
                            horizon=spec.duration_ms)
    entries_per_shard: List[Optional[list]] = [None] * shards
    obs_per_shard: List[Optional[Dict[str, Any]]] = [None] * shards
    spans_per_shard: List[Optional[list]] = [None] * shards
    done = [False] * shards

    def recv(i: int) -> Dict[str, Any]:
        try:
            msg = conns[i].recv()
        except EOFError:
            raise RuntimeError(f"shard {i} worker died unexpectedly")
        if msg["t"] == "error":
            raise RuntimeError(f"shard {i} worker failed:\n{msg['tb']}")
        return msg

    try:
        readies = [recv(i) for i in range(shards)]
        matrices = [r["matrix"] for r in readies]
        if any(m != matrices[0] for m in matrices):  # pragma: no cover
            raise RuntimeError(
                f"workers disagree on the lookahead matrix: {matrices}")
        result.lookahead_matrix = matrices[0]
        result.lookahead = min_lookahead(matrices[0])
        result.build_s = max(r["build_s"] for r in readies)

        wall_start = time.perf_counter()
        for conn in conns:
            conn.send({"t": "go"})

        coord = _Coordinator(shards, spec.duration_ms, matrices[0])
        stash: List[Optional[Dict[str, Any]]] = [None] * shards

        def collect_done(i: int, m: Dict[str, Any]) -> None:
            done[i] = True
            result.shard_events.append(m["events"])
            result.shard_walls.append(m["wall_s"])
            result.windows_per_shard.append(m["windows"])
            result.stalled_windows.append(m["stalls"])
            result.stall_causes.append(m["stall_causes"])
            result.barrier_wait_s.append(m["barrier_wait_s"])
            result.export_q_peaks.append(m["export_q_peak"])
            result.events += m["events"]
            result.exported += m["exported"]
            result.peak_heap = max(result.peak_heap, m["peak_heap"])
            result.compactions += m["compactions"]
            result.deliveries += m["deliveries"]
            result.members += m["members"]
            result.sent += m["sent"]
            result.windows = max(result.windows, m["windows"])
            result.probe_syncs = max(result.probe_syncs, m["probes"])
            for kind, n in m["trace_counts"].items():
                result.trace_counts[kind] = \
                    result.trace_counts.get(kind, 0) + n
            entries_per_shard[i] = m["entries"]
            obs_per_shard[i] = m["obs"]
            spans_per_shard[i] = m["spans"]

        while not all(done):
            for i in range(shards):
                if not done[i] and stash[i] is None:
                    m = recv(i)
                    if m["t"] != "done":
                        coord.ingest(i, m)
                    stash[i] = m
            kinds = {stash[i]["t"] for i in range(shards) if not done[i]}

            if kinds == {"done"}:
                for i in range(shards):
                    if not done[i]:
                        collect_done(i, stash[i])
                        stash[i] = None
                break
            if "done" in kinds:  # pragma: no cover - invariant
                raise RuntimeError(
                    f"shards desynchronized at completion: {kinds}")

            if kinds == {"probe"}:
                idents = {stash[i]["probe"] for i in range(shards)}
                if len(idents) != 1:  # pragma: no cover - invariant
                    raise RuntimeError(
                        f"probe desync across shards: {idents}")
                kind = idents.pop()[0]
                merged = _merge_probe_data(
                    kind, [stash[i]["data"] for i in range(shards)])
                for i in range(shards):
                    conns[i].send({"imports": coord.drain(i),
                                   "probe_data": merged})
                    stash[i] = None
                continue

            # Mixed round: answer the window-parked shards whose bound
            # lets them advance; probe-parked shards stay stashed until
            # everyone reaches the barrier.
            widx = [i for i in range(shards)
                    if stash[i] is not None and stash[i]["t"] == "window"]
            if len(widx) == shards and all(f >= spec.duration_ms
                                           for f in coord.fronts):
                for i in range(shards):
                    conns[i].send({"imports": coord.drain(i),
                                   "tail": True})
                    stash[i] = None
                continue
            lb = coord.lower_bounds()
            served = 0
            for i in widx:
                grant = coord.grant_for(i, lb)
                # Hold zero-width grants: a shard whose bound has not
                # moved stays parked instead of spinning.
                if grant <= coord.fronts[i]:
                    continue
                conns[i].send({"imports": coord.drain(i),
                               "grant": grant})
                stash[i] = None
                served += 1
            if served == 0:  # pragma: no cover - invariant
                raise RuntimeError(
                    "window protocol stalled: no shard can advance "
                    f"(fronts={coord.fronts}, lb={lb})")

        result.wall_s = time.perf_counter() - wall_start

        if record:
            result.merged_lines = merge_streams(
                [e for e in entries_per_shard if e is not None])
        if obs:
            _assemble_obs(result, spec, obs_per_shard)
        if spans:
            # Stitch per-shard span streams across the export
            # boundaries: assembly is order-independent, but a stable
            # merged order keeps streamed artifacts byte-comparable.
            merged_spans = [tuple(ev)
                            for events in spans_per_shard if events
                            for ev in events]
            merged_spans.sort(
                key=lambda ev: (ev[1], ev[0],
                                tuple(str(x) for x in ev[2:])))
            result.span_events = merged_spans
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=5.0)
        for conn in conns:
            conn.close()
    return result


def record_sharded(spec: ExperimentSpec, shards: int,
                   stream_path: Optional[str] = None) -> List[str]:
    """Canonical merged JSONL lines of a ``shards``-way run.

    With ``stream_path`` the merged stream is also written to a
    (``.gz``-compressed, byte-stable) JSONL file via
    :func:`repro.sim.trace.write_trace_lines` — the sharded face of the
    streaming trace sink.
    """
    result = run_sharded(spec, shards, record=True)
    lines = result.merged_lines or []
    if stream_path is not None:
        from repro.sim.trace import write_trace_lines
        write_trace_lines(stream_path, lines)
    return lines
