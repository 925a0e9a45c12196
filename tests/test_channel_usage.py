"""Tests for per-station channel occupancy accounting.

The channel keeps per-station sums (and, on request, one record per
exchange), charged by completion reports; the cell owns the
measurement window and divides by it, so the fraction cases charge a
station-less :class:`Cell`'s channel by hand.
"""

import pytest

from repro.channel import Channel, UsageRecord
from repro.mac.dcf import ExchangeReport
from repro.node.cell import Cell
from repro.sim import Simulator
from repro.transport.packet import Packet


def report(station, airtime_us, *, to_station=True):
    """A completed exchange of one of ``station``'s packets."""
    packet = Packet(1500, station, to_station=to_station)
    return ExchangeReport(
        packet=packet, dst=station, success=True, attempts=1,
        airtime_us=airtime_us,
    )


def test_occupancy_accumulates():
    channel = Channel(Simulator())
    channel.charge(report("a", 100.0))
    channel.charge(report("a", 50.0, to_station=False))  # uplink too
    channel.charge(report("b", 25.0))
    assert channel.occupancy_us("a") == 150.0
    assert channel.occupancy_us("b") == 25.0
    assert channel.occupancies_us() == {"a": 150.0, "b": 25.0}


def test_packetless_report_charges_nobody():
    channel = Channel(Simulator())
    channel.records = []
    channel.charge(ExchangeReport(
        packet=None, dst="a", success=True, attempts=1, airtime_us=100.0,
    ))
    assert channel.occupancies_us() == {}
    assert channel.records == []


def test_unknown_station_zero():
    channel = Channel(Simulator())
    assert channel.occupancy_us("ghost") == 0.0
    assert channel.occupancies_us() == {}
    # ... and a window that attributed no airtime shares none of it.
    cell = Cell()
    cell.add_station("ghost")
    cell.sim.run(until=1000.0)
    assert cell.occupancy_shares() == {"ghost": 0.0}


def test_fraction_of_time():
    cell = Cell()
    cell.channel.charge(report("a", 300.0))
    cell.sim.run(until=1000.0)
    assert cell.occupancy_fractions() == {"a": pytest.approx(0.3)}


def test_fraction_of_busy_shares_sum_to_one():
    cell = Cell()
    cell.channel.charge(report("a", 300.0))
    cell.channel.charge(report("b", 100.0))
    cell.sim.run(until=1000.0)
    shares = cell.occupancy_shares()
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["a"] == pytest.approx(0.75)


def test_reset_clears_and_rebases_time():
    cell = Cell()
    cell.channel.charge(report("a", 500.0))
    cell.sim.run(until=1000.0)
    cell.reset_measurements()
    cell.channel.charge(report("a", 100.0))
    cell.sim.run(until=2000.0)
    assert cell.channel.occupancy_us("a") == 100.0
    assert cell.measured_us == 1000.0
    assert cell.occupancy_fractions() == {"a": pytest.approx(0.1)}


def test_records_kept_when_requested():
    sim = Simulator()
    channel = Channel(sim)
    channel.records = []
    sim.run(until=40.0)
    channel.charge(report("a", 10.0))
    channel.charge(report("b", 5.0))
    assert channel.records == [
        UsageRecord(40.0, "a", 10.0),
        UsageRecord(40.0, "b", 5.0),
    ]
    channel.reset_occupancy()
    assert channel.records == []


def test_records_not_kept_by_default():
    channel = Channel(Simulator())
    channel.charge(report("a", 10.0))
    assert channel.records is None
    channel.reset_occupancy()
    assert channel.records is None


def test_negative_airtime_rejected():
    channel = Channel(Simulator())
    with pytest.raises(ValueError):
        channel.charge(report("a", -1.0))


def test_stations_sorted():
    # Stations with airtime but no association (departed guests) follow
    # the associated ones, sorted.
    cell = Cell()
    cell.add_station("m")
    cell.channel.charge(report("z", 1.0))
    cell.channel.charge(report("a", 1.0))
    cell.sim.run(until=10.0)
    assert list(cell.occupancy_fractions()) == ["m", "a", "z"]
    assert list(cell.occupancy_shares()) == ["m", "a", "z"]


def test_zero_elapsed_fraction_is_zero():
    cell = Cell()
    cell.channel.charge(report("a", 10.0))
    assert cell.occupancy_fractions() == {"a": 0.0}
    assert cell.occupancy_shares() == {"a": 0.0}
