"""Tests for per-station channel occupancy accounting.

The monitor keeps per-station sums (and, on request, one record per
exchange); the cell owns the measurement window and divides by it, so
the fraction cases drive a station-less :class:`Cell`'s monitor by hand.
"""

import pytest

from repro.channel import ChannelUsageMonitor, UsageRecord
from repro.node.cell import Cell
from repro.sim import Simulator


def test_occupancy_accumulates():
    sim = Simulator()
    usage = ChannelUsageMonitor(sim)
    usage.record_exchange("a", 100.0)
    usage.record_exchange("a", 50.0)
    usage.record_exchange("b", 25.0)
    assert usage.occupancy_us("a") == 150.0
    assert usage.occupancy_us("b") == 25.0
    assert usage.occupancies_us() == {"a": 150.0, "b": 25.0}


def test_unknown_station_zero():
    usage = ChannelUsageMonitor(Simulator())
    assert usage.occupancy_us("ghost") == 0.0
    assert usage.occupancies_us() == {}
    # ... and a window that attributed no airtime shares none of it.
    cell = Cell()
    cell.add_station("ghost")
    cell.sim.run(until=1000.0)
    assert cell.occupancy_shares() == {"ghost": 0.0}


def test_fraction_of_time():
    cell = Cell()
    cell.usage.record_exchange("a", 300.0)
    cell.sim.run(until=1000.0)
    assert cell.occupancy_fractions() == {"a": pytest.approx(0.3)}


def test_fraction_of_busy_shares_sum_to_one():
    cell = Cell()
    cell.usage.record_exchange("a", 300.0)
    cell.usage.record_exchange("b", 100.0)
    cell.sim.run(until=1000.0)
    shares = cell.occupancy_shares()
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["a"] == pytest.approx(0.75)


def test_reset_clears_and_rebases_time():
    cell = Cell()
    cell.usage.record_exchange("a", 500.0)
    cell.sim.run(until=1000.0)
    cell.reset_measurements()
    cell.usage.record_exchange("a", 100.0)
    cell.sim.run(until=2000.0)
    assert cell.usage.occupancy_us("a") == 100.0
    assert cell.measured_us == 1000.0
    assert cell.occupancy_fractions() == {"a": pytest.approx(0.1)}


def test_records_kept_when_requested():
    sim = Simulator()
    usage = ChannelUsageMonitor(sim, keep_records=True)
    sim.run(until=40.0)
    usage.record_exchange("a", 10.0)
    usage.record_exchange("b", 5.0)
    assert usage.records == [
        UsageRecord(40.0, "a", 10.0),
        UsageRecord(40.0, "b", 5.0),
    ]
    usage.reset()
    assert usage.records == []


def test_records_not_kept_by_default():
    usage = ChannelUsageMonitor(Simulator())
    usage.record_exchange("a", 10.0)
    assert usage.records == []


def test_negative_airtime_rejected():
    usage = ChannelUsageMonitor(Simulator())
    with pytest.raises(ValueError):
        usage.record_exchange("a", -1.0)


def test_stations_sorted():
    # Stations with airtime but no association (departed guests) follow
    # the associated ones, sorted.
    cell = Cell()
    cell.add_station("m")
    cell.usage.record_exchange("z", 1.0)
    cell.usage.record_exchange("a", 1.0)
    cell.sim.run(until=10.0)
    assert list(cell.occupancy_fractions()) == ["m", "a", "z"]
    assert list(cell.occupancy_shares()) == ["m", "a", "z"]


def test_zero_elapsed_fraction_is_zero():
    cell = Cell()
    cell.usage.record_exchange("a", 10.0)
    assert cell.occupancy_fractions() == {"a": 0.0}
    assert cell.occupancy_shares() == {"a": 0.0}
