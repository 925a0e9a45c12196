"""Per-category event accounting in the kernel."""

import pytest

from repro.sim import EventCategory, SimulationError, Simulator


def noop():
    pass


def test_every_schedule_variant_carries_its_category():
    sim = Simulator()
    sim.schedule(1.0, noop, category=EventCategory.TRAFFIC)
    sim.schedule_at(2.0, noop, category=EventCategory.MAC)
    sim.schedule_transient(3.0, noop, category=EventCategory.PHY)
    sim.schedule_transient_at(4.0, noop, category=EventCategory.PHY)
    sim.schedule(0.0, noop, category=EventCategory.TIMER)
    sim.schedule(5.0, noop, category=EventCategory.TRAFFIC)
    sim.schedule(6.0, noop, category=EventCategory.TRAFFIC)
    sim.schedule(7.0, noop)  # untagged -> other
    sim.run()
    assert sim.events_by_category() == {
        "other": 1,
        "traffic": 3,
        "mac": 1,
        "phy": 2,
        "timer": 1,
    }
    assert sim.events_executed == sum(sim.events_by_category().values())


def test_reschedule_overwrites_stale_category():
    sim = Simulator()
    event = sim.schedule(1.0, noop, category=EventCategory.MAC)
    sim.run(until=2.0)
    # Reuse the spent event under a different category.
    event = sim.reschedule(event, 1.0, noop, category=EventCategory.TRAFFIC)
    sim.reschedule_at(None, 4.0, noop, category=EventCategory.TIMER)
    sim.run()
    counts = sim.events_by_category()
    assert counts["mac"] == 1 and counts["traffic"] == 1 and counts["timer"] == 1


def test_recycled_transient_counts_under_new_category():
    sim = Simulator()

    def second():
        pass

    def first():
        # Recycles the very event object that is executing `first`.
        sim.schedule_transient(1.0, second, category=EventCategory.TRAFFIC)

    sim.schedule_transient(1.0, first, category=EventCategory.PHY)
    sim.run()
    counts = sim.events_by_category()
    assert counts["phy"] == 1 and counts["traffic"] == 1


def test_cancelled_events_are_not_counted():
    sim = Simulator()
    event = sim.schedule(1.0, noop, category=EventCategory.MAC)
    event.cancel()
    sim.schedule(2.0, noop, category=EventCategory.MAC)
    sim.run()
    assert sim.events_by_category()["mac"] == 1


def test_schedule_transient_at_hits_exact_timestamp():
    sim = Simulator()
    sim.schedule(0.3, noop)
    sim.run(until=0.3)
    # 0.1 + 0.2 != 0.3 in floats; the relative path would re-associate.
    target = 7_777_777.77
    times = []
    sim.schedule_transient_at(target, lambda: times.append(sim.now))
    sim.run()
    assert times == [target]
    with pytest.raises(SimulationError):
        sim.schedule_transient_at(0.0, noop)  # in the past


def test_schedule_transient_at_recycles_like_schedule_transient():
    sim = Simulator()
    for i in range(4):
        sim.schedule_transient_at(float(i + 1), noop)
    sim.run()
    before = len(sim._free)
    assert before >= 1
    event = sim.schedule_transient_at(sim.now + 1.0, noop)
    assert len(sim._free) == before - 1  # reused a pooled event object
    sim.run()
    del event
