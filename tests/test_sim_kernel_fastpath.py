"""Regression tests for the kernel fast paths.

Covers the lazy-cancellation accounting, heap compaction, O(1)
``pending_count``, and the ordering guarantees they must preserve.
"""

import pytest

from repro.sim import EventPriority, Simulator
from repro.sim.kernel import _COMPACT_MIN_STALE


# ----------------------------------------------------------------------
# cancellation accounting and compaction
# ----------------------------------------------------------------------
def test_cancel_then_run_preserves_order_of_survivors():
    sim = Simulator()
    order = []
    events = [sim.schedule(float(i + 1), order.append, i) for i in range(10)]
    for i in (0, 3, 4, 8):
        sim.cancel(events[i])
    sim.run()
    assert order == [1, 2, 5, 6, 7, 9]


def test_cancel_inside_callback_prevents_later_execution():
    sim = Simulator()
    fired = []
    later = sim.schedule(10.0, fired.append, "later")
    sim.schedule(5.0, sim.cancel, later)
    sim.run()
    assert fired == []
    assert sim.pending_count() == 0


def test_peek_after_mass_cancel():
    sim = Simulator()
    keep = sim.schedule(500.0, lambda: None)
    doomed = [sim.schedule(float(i + 1), lambda: None) for i in range(100)]
    for event in doomed:
        sim.cancel(event)
    assert sim.peek() == 500.0
    assert sim.pending_count() == 1
    del keep


def test_pending_count_is_accurate_through_churn():
    sim = Simulator()
    assert sim.pending_count() == 0
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(20)]
    assert sim.pending_count() == 20
    for event in events[::2]:
        sim.cancel(event)
    assert sim.pending_count() == 10
    # Double-cancel must not be double-counted.
    sim.cancel(events[0])
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
        sim.cancel(event)
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
        sim.cancel(event)
    assert sim.heap_compactions > 0
    sim.run()
    assert order == ["tx", "normal", "normal2"]


def test_cancel_after_execution_does_not_corrupt_counters():
    # Events are never reused, so a reference held past execution cannot
    # alias (and cancelling it cannot drop) a later event.
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, lambda: None)
    sim.run()
    later = sim.schedule(3.0, fired.append, "b")
    sim.cancel(event)  # spent; must be a no-op for the accounting
    assert sim.pending_count() == 1
    sim.run()
    assert fired == ["a", "b"]
    assert later is not event
    # Cancelling an event from inside its own callback is inert too: it
    # left the heap when it was popped to run.
    seen = []

    def cancel_self():
        sim.cancel(box[0])
        seen.append((sim.pending_count(), sim._stale))

    box = [sim.schedule(1.0, cancel_self)]
    sim.schedule(2.0, lambda: None)
    sim.run(until=sim.now + 1.5)
    assert seen == [(1, 0)]
    assert (sim.pending_count(), sim._stale) == (1, 0)


# ----------------------------------------------------------------------
# events_executed across run() variants
# ----------------------------------------------------------------------
def test_events_executed_accumulates_across_runs():
    sim = Simulator()
    for i in range(4):
        sim.schedule(float(i + 1), lambda: None)
    sim.run(until=2.5)
    assert sim.events_executed == 2
    sim.run(until=3.5)
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


def test_raising_callback_keeps_the_counts_in_agreement():
    # An event counts once its callback returns, in both totals alike.
    sim = Simulator()

    def boom():
        raise RuntimeError("boom")

    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, boom)
    with pytest.raises(RuntimeError):
        sim.run()
    assert sim.events_executed == sum(sim.events_by_category().values()) == 1


def test_events_executed_is_live_during_run():
    sim = Simulator()
    seen = []
    for i in range(3):
        sim.schedule(float(i + 1), lambda: seen.append(sim.events_executed))
    sim.run()
    # Each callback sees the count of events completed *before* it.
    assert seen == [0, 1, 2]
    assert sim.events_executed == 3
