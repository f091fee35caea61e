"""Unit tests for one-shot and periodic timers."""

import pytest

from repro.runtime.timers import PeriodicTimer, Timer


def test_timer_fires_once(sim):
    fired = []
    t = Timer(sim, lambda: fired.append(sim.now))
    t.start(3.0)
    sim.run()
    assert fired == [3.0]


def test_timer_restart_resets_deadline(sim):
    fired = []
    t = Timer(sim, lambda: fired.append(sim.now))
    t.start(3.0)
    sim.schedule(2.0, lambda: t.start(5.0))  # restart at t=2 -> fires at 7
    sim.run()
    assert fired == [7.0]


def test_timer_stop_prevents_fire(sim):
    fired = []
    t = Timer(sim, lambda: fired.append(1))
    t.start(3.0)
    t.stop()
    sim.run()
    assert fired == []


def test_timer_stop_idempotent(sim):
    t = Timer(sim, lambda: None)
    t.stop()
    t.stop()  # must not raise


def test_timer_armed_property(sim):
    t = Timer(sim, lambda: None)
    assert not t.armed
    t.start(1.0)
    assert t.armed
    sim.run()
    assert not t.armed


def test_timer_passes_args(sim):
    got = []
    t = Timer(sim, lambda a, b: got.append((a, b)), 1, 2)
    t.start(1.0)
    sim.run()
    assert got == [(1, 2)]


def test_periodic_fires_every_period(sim):
    fired = []
    p = PeriodicTimer(sim, 2.0, lambda: fired.append(sim.now))
    p.start()
    sim.run(until=7.0)
    assert fired == [2.0, 4.0, 6.0]
    assert p.fires == 3


def test_periodic_phase_offset(sim):
    fired = []
    p = PeriodicTimer(sim, 2.0, lambda: fired.append(sim.now), phase=1.0)
    p.start()
    sim.run(until=6.0)
    assert fired == [3.0, 5.0]


def test_periodic_stop_ends_ticking(sim):
    fired = []
    p = PeriodicTimer(sim, 1.0, lambda: fired.append(sim.now))
    p.start()
    sim.schedule(2.5, p.stop)
    sim.run(until=10.0)
    assert fired == [1.0, 2.0]


def test_periodic_callback_may_stop_itself(sim):
    fired = []

    def cb():
        fired.append(sim.now)
        if len(fired) == 2:
            p.stop()

    p = PeriodicTimer(sim, 1.0, cb)
    p.start()
    sim.run(until=10.0)
    assert fired == [1.0, 2.0]


def test_periodic_start_idempotent(sim):
    fired = []
    p = PeriodicTimer(sim, 1.0, lambda: fired.append(sim.now))
    p.start()
    p.start()  # must not double-schedule
    sim.run(until=2.5)
    assert fired == [1.0, 2.0]


def test_periodic_invalid_period_rejected(sim):
    with pytest.raises(ValueError):
        PeriodicTimer(sim, 0.0, lambda: None)
