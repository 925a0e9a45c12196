"""Tests for the discrete-event kernel."""

import pytest

from repro.sim import Simulator, SimulationError, EventPriority


def test_initial_time_is_zero():
    assert Simulator().now == 0.0


def test_schedule_and_run_executes_callback():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, fired.append, "a")
    sim.run()
    assert fired == ["a"]
    assert sim.now == 10.0


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(30.0, order.append, 3)
    sim.schedule(10.0, order.append, 1)
    sim.schedule(20.0, order.append, 2)
    sim.run()
    assert order == [1, 2, 3]


def test_same_time_ordered_by_priority():
    sim = Simulator()
    order = []
    sim.schedule(5.0, order.append, "normal", priority=EventPriority.NORMAL)
    sim.schedule(5.0, order.append, "tx", priority=EventPriority.TX_START)
    sim.schedule(5.0, order.append, "monitor", priority=EventPriority.MONITOR)
    sim.run()
    assert order == ["tx", "normal", "monitor"]


def test_same_time_same_priority_fifo():
    sim = Simulator()
    order = []
    for i in range(5):
        sim.schedule(1.0, order.append, i)
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_cancel_prevents_execution():
    sim = Simulator()
    fired = []
    event = sim.schedule(10.0, fired.append, "x")
    event.cancel()
    sim.run()
    assert fired == []


def test_cancel_none_is_noop():
    Simulator.cancel(None)  # must not raise


def test_run_until_stops_clock_exactly():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, fired.append, "early")
    sim.schedule(100.0, fired.append, "late")
    sim.run(until=50.0)
    assert fired == ["early"]
    assert sim.now == 50.0
    sim.run()
    assert fired == ["early", "late"]


def test_event_at_until_boundary_not_executed():
    sim = Simulator()
    fired = []
    sim.schedule(50.0, fired.append, "x")
    sim.run(until=50.0)
    assert fired == []
    sim.run()
    assert fired == ["x"]


def test_run_with_empty_queue_advances_to_until():
    sim = Simulator()
    sim.run(until=123.0)
    assert sim.now == 123.0


def test_stop_halts_processing():
    sim = Simulator()
    fired = []

    def stopper():
        fired.append("stop")
        sim.stop()

    sim.schedule(1.0, stopper)
    sim.schedule(2.0, fired.append, "after")
    sim.run()
    assert fired == ["stop"]
    sim.run()
    assert fired == ["stop", "after"]


def test_max_events_budget():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i + 1), fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_events_scheduled_during_execution_run():
    sim = Simulator()
    order = []

    def outer():
        order.append("outer")
        sim.schedule(5.0, order.append, "inner")

    sim.schedule(1.0, outer)
    sim.run()
    assert order == ["outer", "inner"]
    assert sim.now == 6.0


def test_run_not_reentrant():
    sim = Simulator()

    def reenter():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, reenter)
    sim.run()


def test_peek_returns_next_pending_time():
    sim = Simulator()
    assert sim.peek() is None
    event = sim.schedule(5.0, lambda: None)
    sim.schedule(9.0, lambda: None)
    assert sim.peek() == 5.0
    event.cancel()
    assert sim.peek() == 9.0


def test_next_time_outside_run_is_the_heap_top_or_inf():
    sim = Simulator()
    assert sim.next_time() == float("inf")  # empty heap, no horizon
    sim.schedule(40.0, lambda: None)
    first = sim.schedule(10.0, lambda: None)
    assert sim.next_time() == 10.0
    first.cancel()
    assert sim.next_time() == 40.0  # cancelled heads are skipped


def test_next_time_inside_run_is_bounded_by_the_horizon():
    sim = Simulator()
    seen = []
    sim.schedule(10.0, lambda: seen.append(sim.next_time()))
    sim.schedule(30.0, lambda: seen.append(sim.next_time()))
    doomed = sim.schedule(60.0, lambda: None)
    sim.schedule(70.0, lambda: seen.append(sim.next_time()))
    sim.schedule(20.0, doomed.cancel)
    sim.run(until=50.0)
    # From 10: the heap top (20) precedes the horizon.  From 30: the
    # next live event (70, the one at 60 is cancelled) lies beyond the
    # horizon, which is what bounds it.
    assert seen == [20.0, 50.0]
    # The horizon belongs to the run: gone once it returns.
    assert sim.next_time() == 70.0
    sim.run()
    assert seen == [20.0, 50.0, float("inf")]  # no horizon, empty heap


def test_next_time_horizon_is_cleared_when_a_callback_raises():
    sim = Simulator()

    def boom():
        raise RuntimeError("boom")

    sim.schedule(10.0, boom)
    with pytest.raises(RuntimeError):
        sim.run(until=50.0)
    assert sim.next_time() == float("inf")


def test_pending_count_ignores_cancelled():
    sim = Simulator()
    keep = sim.schedule(1.0, lambda: None)
    drop = sim.schedule(2.0, lambda: None)
    drop.cancel()
    assert sim.pending_count() == 1
    del keep


def test_events_executed_counter():
    sim = Simulator()
    for i in range(4):
        sim.schedule(float(i + 1), lambda: None)
    sim.run()
    assert sim.events_executed == 4


def test_rng_streams_are_deterministic():
    a = Simulator(seed=7)
    b = Simulator(seed=7)
    assert [a.rng("x").random() for _ in range(5)] == [
        b.rng("x").random() for _ in range(5)
    ]


def test_rng_streams_are_independent():
    sim = Simulator(seed=7)
    first = [sim.rng("x").random() for _ in range(3)]
    # Drawing from another stream must not perturb the first.
    sim2 = Simulator(seed=7)
    sim2.rng("y").random()
    second = [sim2.rng("x").random() for _ in range(3)]
    assert first == second


def test_rng_different_seeds_differ():
    assert Simulator(seed=1).rng("x").random() != Simulator(seed=2).rng("x").random()


def test_args_passed_to_callback():
    sim = Simulator()
    got = []
    sim.schedule(1.0, lambda a, b: got.append((a, b)), 1, "two")
    sim.run()
    assert got == [(1, "two")]
