"""Regression tests for the kernel fast paths.

Covers the lazy-cancellation accounting, heap compaction, O(1)
``pending_count``, the ``reschedule``/``schedule_transient`` fast
paths, and the ordering guarantees they must preserve.
"""

import pytest

from repro.sim import EventPriority, SimulationError, Simulator
from repro.sim.kernel import _COMPACT_MIN_STALE


# ----------------------------------------------------------------------
# cancellation accounting and compaction
# ----------------------------------------------------------------------
def test_cancel_then_run_preserves_order_of_survivors():
    sim = Simulator()
    order = []
    events = [sim.schedule(float(i + 1), order.append, i) for i in range(10)]
    for i in (0, 3, 4, 8):
        events[i].cancel()
    sim.run()
    assert order == [1, 2, 5, 6, 7, 9]


def test_cancel_inside_callback_prevents_later_execution():
    sim = Simulator()
    fired = []
    later = sim.schedule(10.0, fired.append, "later")
    sim.schedule(5.0, later.cancel)
    sim.run()
    assert fired == []
    assert sim.pending_count() == 0


def test_peek_after_mass_cancel():
    sim = Simulator()
    keep = sim.schedule(500.0, lambda: None)
    doomed = [sim.schedule(float(i + 1), lambda: None) for i in range(100)]
    for event in doomed:
        event.cancel()
    assert sim.peek() == 500.0
    assert sim.pending_count() == 1
    del keep


def test_pending_count_is_accurate_through_churn():
    sim = Simulator()
    assert sim.pending_count() == 0
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(20)]
    assert sim.pending_count() == 20
    for event in events[::2]:
        event.cancel()
    assert sim.pending_count() == 10
    # Double-cancel must not be double-counted.
    events[0].cancel()
    assert sim.pending_count() == 10
    sim.run()
    assert sim.pending_count() == 0
    assert sim.events_executed == 10


def test_mass_cancel_triggers_compaction_and_keeps_order():
    sim = Simulator()
    order = []
    survivors = []
    stale = []
    for i in range(3 * _COMPACT_MIN_STALE):
        stale.append(sim.schedule(10_000.0 + i, order.append, "dead"))
    for i in range(5):
        survivors.append(sim.schedule(100.0 + i, order.append, i))
    for event in stale:
        event.cancel()
    assert sim.heap_compactions > 0
    assert sim.pending_count() == 5
    sim.run()
    assert order == [0, 1, 2, 3, 4]
    assert sim.events_executed == 5


def test_compaction_preserves_same_time_priority_ties():
    sim = Simulator()
    order = []
    # Interleave survivors at one timestamp with a stale majority.
    sim.schedule(50.0, order.append, "normal", priority=EventPriority.NORMAL)
    doomed = [
        sim.schedule(10.0, order.append, "dead") for _ in range(2 * _COMPACT_MIN_STALE)
    ]
    sim.schedule(50.0, order.append, "tx", priority=EventPriority.TX_START)
    sim.schedule(50.0, order.append, "normal2", priority=EventPriority.NORMAL)
    for event in doomed:
        event.cancel()
    assert sim.heap_compactions > 0
    sim.run()
    assert order == ["tx", "normal", "normal2"]


def test_cancel_after_execution_does_not_corrupt_counters():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run()
    event.cancel()  # spent; must be a no-op for the accounting
    assert sim.pending_count() == 0
    sim.schedule(3.0, lambda: None)
    assert sim.pending_count() == 1


# ----------------------------------------------------------------------
# reschedule (timer reuse)
# ----------------------------------------------------------------------
def test_reschedule_reuses_spent_event_object():
    sim = Simulator()
    fired = []
    first = sim.schedule(1.0, fired.append, "a")
    sim.run()
    second = sim.reschedule(first, 1.0, fired.append, "b")
    assert second is first  # recycled in place
    sim.run()
    assert fired == ["a", "b"]
    assert sim.events_executed == 2


def test_reschedule_of_queued_event_allocates_fresh():
    sim = Simulator()
    fired = []
    queued = sim.schedule(10.0, fired.append, "queued")
    other = sim.reschedule(queued, 1.0, fired.append, "other")
    assert other is not queued
    sim.run()
    assert fired == ["other", "queued"]


def test_reschedule_of_cancelled_queued_event_allocates_fresh():
    sim = Simulator()
    fired = []
    dead = sim.schedule(10.0, fired.append, "dead")
    dead.cancel()
    live = sim.reschedule(dead, 1.0, fired.append, "live")
    assert live is not dead
    sim.run()
    assert fired == ["live"]


def test_reschedule_none_schedules_normally():
    sim = Simulator()
    fired = []
    sim.reschedule(None, 2.0, fired.append, "x")
    sim.run()
    assert fired == ["x"]


def test_reschedule_foreign_event_allocates_fresh():
    sim_a = Simulator()
    sim_b = Simulator()
    fired = []
    foreign = sim_a.schedule(1.0, lambda: None)
    sim_a.run()
    event = sim_b.reschedule(foreign, 1.0, fired.append, "b")
    assert event is not foreign
    sim_b.run()
    assert fired == ["b"]


def test_reschedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.reschedule(None, -1.0, lambda: None)


def test_reschedule_ties_fall_after_existing_events():
    # A recycled event gets a fresh sequence number: at an equal
    # timestamp and priority it runs after anything scheduled earlier.
    sim = Simulator()
    order = []
    spent = sim.schedule(1.0, order.append, "warmup")
    sim.run()
    sim.schedule(5.0, order.append, "first")
    sim.reschedule(spent, 5.0, order.append, "second")
    sim.run()
    assert order == ["warmup", "first", "second"]


# ----------------------------------------------------------------------
# schedule_transient (recycled fire-and-forget events)
# ----------------------------------------------------------------------
def test_schedule_transient_executes_like_schedule():
    sim = Simulator()
    order = []
    sim.schedule_transient(2.0, order.append, "b")
    sim.schedule(1.0, order.append, "a")
    sim.run()
    assert order == ["a", "b"]
    assert sim.events_executed == 2


def test_transient_events_are_recycled():
    sim = Simulator()
    fired = []
    first = sim.schedule_transient(1.0, fired.append, 1)
    sim.run()
    second = sim.schedule_transient(1.0, fired.append, 2)
    assert second is first  # came back off the free list
    sim.run()
    assert fired == [1, 2]


def test_cancelled_transient_is_not_recycled():
    sim = Simulator()
    fired = []
    dead = sim.schedule_transient(1.0, fired.append, "dead")
    dead.cancel()
    fresh = sim.schedule_transient(1.0, fired.append, "fresh")
    assert fresh is not dead
    sim.run()
    assert fired == ["fresh"]


# ----------------------------------------------------------------------
# events_executed across run() variants
# ----------------------------------------------------------------------
def test_events_executed_accumulates_across_runs():
    sim = Simulator()
    for i in range(4):
        sim.schedule(float(i + 1), lambda: None)
    sim.run(until=2.5)
    assert sim.events_executed == 2
    sim.run(max_events=1)
    assert sim.events_executed == 3
    sim.run()
    assert sim.events_executed == 4


def test_event_at_infinity_executes_when_run_unbounded():
    sim = Simulator()
    fired = []
    sim.schedule(float("inf"), fired.append, "inf")
    sim.schedule(1.0, fired.append, "finite")
    sim.run()
    assert fired == ["finite", "inf"]
    assert sim.now == float("inf")  # clock stays a float, never None


def test_events_executed_is_live_during_run():
    sim = Simulator()
    seen = []
    for i in range(3):
        sim.schedule(float(i + 1), lambda: seen.append(sim.events_executed))
    sim.run()
    # Each callback sees the count of events completed *before* it.
    assert seen == [0, 1, 2]
    assert sim.events_executed == 3
