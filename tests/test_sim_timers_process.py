"""Tests for PeriodicTimer."""

import pytest

from repro.sim import PeriodicTimer, Simulator


def test_timer_fires_every_period():
    sim = Simulator()
    times = []
    timer = PeriodicTimer(sim, 10.0, lambda elapsed: times.append(sim.now))
    timer.start()
    sim.run(until=35.0)
    assert times == [10.0, 20.0, 30.0]


def test_timer_reports_elapsed_since_last_fire():
    sim = Simulator()
    elapsed = []
    timer = PeriodicTimer(sim, 7.0, elapsed.append)
    timer.start()
    sim.run(until=22.0)
    assert elapsed == [7.0, 7.0, 7.0]


def test_timer_stop_prevents_fires():
    sim = Simulator()
    count = []
    timer = PeriodicTimer(sim, 10.0, lambda e: count.append(e))
    timer.start()
    sim.run(until=15.0)
    timer.stop()
    sim.run(until=100.0)
    assert len(count) == 1


def test_timer_restart_resets_phase():
    sim = Simulator()
    times = []
    timer = PeriodicTimer(sim, 10.0, lambda e: times.append(sim.now))
    timer.start()
    sim.run(until=5.0)
    timer.start()  # restart at t=5
    sim.run(until=16.0)
    assert times == [15.0]


def test_timer_rejects_bad_period():
    sim = Simulator()
    with pytest.raises(ValueError):
        PeriodicTimer(sim, 0.0, lambda e: None)

