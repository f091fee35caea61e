"""Assemble monitor suites and run checked simulations.

:func:`standard_suite` picks the monitors that apply to a system
(``ringnet`` / ``single_ring`` get the full family plus the total-order
checker; ``unordered`` intentionally skips order- and token-dependent
monitors).

:func:`check_spec` is the one-call conformance entry the fuzz harness
and the CLI use: build the scenario, attach the suite, run, finish, and
return a :class:`CheckResult`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.validation.monitor import Monitor, MonitorSuite
from repro.validation.monitors import (
    DEFAULT_RECOVERY_WINDOW_MS,
    BoundsMonitor,
    HandoffMonitor,
    MembershipMonitor,
    PartitionRecoveryMonitor,
    QuiescenceMonitor,
    TokenMonitor,
)

#: Systems whose delivery stream carries true global sequence numbers.
ORDERED_SYSTEMS = ("ringnet", "single_ring")


def _order_checker() -> Monitor:
    # Imported lazily: repro.metrics.order_checker imports the Monitor
    # base from this package, so a module-level import here would make
    # the two packages' import order matter.
    from repro.metrics.order_checker import OrderChecker
    return OrderChecker()


def standard_suite(
    system: str = "ringnet",
    *,
    liveness_window_ms: Optional[float] = None,
    recovery_window_ms: float = DEFAULT_RECOVERY_WINDOW_MS,
    per_peer_limit: Optional[int] = None,
    include_order: bool = True,
) -> MonitorSuite:
    """The monitor set appropriate for ``system``."""
    monitors: List[Monitor] = []
    ordered = system in ORDERED_SYSTEMS
    if ordered:
        monitors.append(TokenMonitor(liveness_window_ms=liveness_window_ms))
        monitors.append(HandoffMonitor())
        if include_order:
            monitors.append(_order_checker())
    monitors.append(MembershipMonitor())
    monitors.append(BoundsMonitor(per_peer_limit=per_peer_limit))
    monitors.append(QuiescenceMonitor(recovery_window_ms=recovery_window_ms))
    monitors.append(PartitionRecoveryMonitor(
        recovery_window_ms=recovery_window_ms))
    return MonitorSuite(monitors)


def suite_for_spec(spec) -> MonitorSuite:
    """The :func:`standard_suite` for a spec's system.

    Attach the result *before* building the scenario so construction-
    time records (initial MH joins) are observed; the token liveness
    window derives itself from the net at finish time.
    """
    return standard_suite(spec.system)


# ----------------------------------------------------------------------
# Observed scenario construction
# ----------------------------------------------------------------------
@contextmanager
def observed_scenario(spec, *observers) -> Iterator[Any]:
    """Build ``spec`` with ``observers`` attached **before** construction.

    The one place that knows the load-bearing ordering rule: initial MH
    joins are emitted while the network is built, so anything with an
    ``attach(trace)`` / ``detach()`` surface (a :class:`MonitorSuite`, a
    single :class:`~repro.validation.monitor.Monitor`, a
    :class:`~repro.validation.record.TraceRecorder`) must subscribe
    before ``build_scenario`` or it silently misses those records.
    Yields the built scenario; observers always detach on exit.
    """
    from repro.experiments.runner import build_scenario  # lazy: no cycle
    from repro.sim.engine import Simulator

    sim = Simulator(seed=spec.seed)
    for obs in observers:
        obs.attach(sim.trace)
    try:
        yield build_scenario(spec, sim=sim)
    finally:
        for obs in observers:
            obs.detach()


# ----------------------------------------------------------------------
# One checked run
# ----------------------------------------------------------------------
@dataclass
class CheckResult:
    """Everything one conformance run reports."""

    name: str
    system: str
    seed: int
    duration_ms: float
    deliveries: int = 0
    violations: List[str] = field(default_factory=list)
    reports: Dict[str, Any] = field(default_factory=dict)
    trace_lines: Optional[List[str]] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "system": self.system,
            "seed": self.seed,
            "duration_ms": self.duration_ms,
            "deliveries": self.deliveries,
            "ok": self.ok,
            "violations": list(self.violations),
            "reports": dict(self.reports),
        }


def check_spec(spec, *, record_trace: bool = False,
               suite: Optional[MonitorSuite] = None) -> CheckResult:
    """Run ``spec`` once with the full monitor suite attached.

    ``record_trace=True`` additionally captures the canonical JSONL
    stream (for failure artifacts / replay debugging).  A custom
    ``suite`` replaces the standard one.
    """
    from repro.validation.record import TraceRecorder

    recorder = TraceRecorder() if record_trace else None
    if suite is None:
        suite = suite_for_spec(spec)
    observers = [suite] if recorder is None else [suite, recorder]
    with observed_scenario(spec, *observers) as scenario:
        scenario.run()
        suite.finish(net=scenario.net, end_time=scenario.sim.now)
    return CheckResult(
        name=spec.name,
        system=spec.system,
        seed=spec.seed,
        duration_ms=spec.duration_ms,
        deliveries=scenario.net.total_app_deliveries(),
        violations=suite.all_violations(),
        reports=suite.report(),
        trace_lines=recorder.lines if recorder is not None else None,
    )
