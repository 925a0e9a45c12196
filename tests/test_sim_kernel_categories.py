"""Per-category event accounting in the kernel."""

import pytest

from repro.sim import EventCategory, SimulationError, Simulator


def noop():
    pass


def test_every_schedule_variant_carries_its_category():
    sim = Simulator()
    sim.schedule(1.0, noop, category=EventCategory.TRAFFIC)
    sim.schedule_at(2.0, noop, category=EventCategory.MAC)
    sim.schedule(3.0, noop, category=EventCategory.PHY)
    sim.schedule_at(4.0, noop, category=EventCategory.PHY)
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


def test_cancelled_events_are_not_counted():
    sim = Simulator()
    event = sim.schedule(1.0, noop, category=EventCategory.MAC)
    event.cancel()
    sim.schedule(2.0, noop, category=EventCategory.MAC)
    sim.run()
    assert sim.events_by_category()["mac"] == 1


def test_schedule_at_hits_exact_timestamp():
    sim = Simulator()
    sim.schedule(0.3, noop)
    sim.run(until=0.3)
    # 0.1 + 0.2 != 0.3 in floats; the relative path would re-associate.
    target = 7_777_777.77
    times = []
    sim.schedule_at(target, lambda: times.append(sim.now))
    sim.run()
    assert times == [target]
    with pytest.raises(SimulationError):
        sim.schedule_at(0.0, noop)  # in the past
