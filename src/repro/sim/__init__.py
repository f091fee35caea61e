"""Deterministic discrete-event simulation kernel.

The kernel underpins every protocol in this repository.  It is a classic
event-heap scheduler with two deliberate properties:

* **Determinism** — events with identical timestamps fire in scheduling
  order (a monotonic tie-break counter), and all randomness flows through
  named, seeded streams (:mod:`repro.sim.rand`).  The same seed always
  reproduces the same trace, which the test suite relies on.
* **Observability** — a structured trace bus (:mod:`repro.sim.trace`)
  that metrics collectors subscribe to.

Example
-------
>>> from repro.sim import Simulator
>>> sim = Simulator(seed=42)
>>> fired = []
>>> sim.schedule(5.0, lambda: fired.append(sim.now))
<repro.sim.engine.Event ...>
>>> sim.run()
>>> fired
[5.0]
"""

from repro.sim.engine import Event, Simulator, SimulationError
from repro.runtime.timers import Timer, PeriodicTimer
from repro.sim.rand import RandomStreams
from repro.sim.trace import TraceBus, TraceRecord

__all__ = [
    "Event",
    "Simulator",
    "SimulationError",
    "Timer",
    "PeriodicTimer",
    "RandomStreams",
    "TraceBus",
    "TraceRecord",
]
