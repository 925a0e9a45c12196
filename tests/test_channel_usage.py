"""Tests for per-station channel occupancy accounting."""

import pytest

from repro.channel import ChannelUsageMonitor
from repro.sim import Simulator


def test_occupancy_accumulates():
    sim = Simulator()
    usage = ChannelUsageMonitor(sim)
    usage.record_exchange("a", 100.0)
    usage.record_exchange("a", 50.0)
    usage.record_exchange("b", 25.0)
    assert usage.occupancy_us("a") == 150.0
    assert usage.occupancy_us("b") == 25.0
    assert usage.total_occupancy_us() == 175.0


def test_unknown_station_zero():
    usage = ChannelUsageMonitor(Simulator())
    assert usage.occupancy_us("ghost") == 0.0
    assert usage.fraction_of_busy("ghost") == 0.0


def test_fraction_of_time():
    sim = Simulator()
    usage = ChannelUsageMonitor(sim)
    usage.record_exchange("a", 300.0)
    sim.run(until=1000.0)
    assert usage.fraction_of_time("a") == pytest.approx(0.3)
    assert usage.fraction_of_time("a", elapsed_us=600.0) == pytest.approx(0.5)


def test_fraction_of_busy_shares_sum_to_one():
    sim = Simulator()
    usage = ChannelUsageMonitor(sim)
    usage.record_exchange("a", 300.0)
    usage.record_exchange("b", 100.0)
    fractions = usage.fractions()
    assert sum(fractions.values()) == pytest.approx(1.0)
    assert fractions["a"] == pytest.approx(0.75)


def test_reset_clears_and_rebases_time():
    sim = Simulator()
    usage = ChannelUsageMonitor(sim)
    usage.record_exchange("a", 500.0)
    sim.run(until=1000.0)
    usage.reset()
    usage.record_exchange("a", 100.0)
    sim.run(until=2000.0)
    assert usage.occupancy_us("a") == 100.0
    assert usage.fraction_of_time("a") == pytest.approx(0.1)


def test_records_kept_when_requested():
    sim = Simulator()
    usage = ChannelUsageMonitor(sim, keep_records=True)
    usage.record_exchange(
        "a", 10.0, attempts=2, success=False, payload_bytes=1500,
        rate_mbps=11.0, direction="down",
    )
    assert len(usage.records) == 1
    rec = usage.records[0]
    assert rec.attempts == 2 and not rec.success and rec.direction == "down"


def test_records_not_kept_by_default():
    usage = ChannelUsageMonitor(Simulator())
    usage.record_exchange("a", 10.0)
    assert usage.records == []


def test_negative_airtime_rejected():
    usage = ChannelUsageMonitor(Simulator())
    with pytest.raises(ValueError):
        usage.record_exchange("a", -1.0)


def test_stations_sorted():
    usage = ChannelUsageMonitor(Simulator())
    usage.record_exchange("z", 1.0)
    usage.record_exchange("a", 1.0)
    assert usage.stations() == ["a", "z"]


def test_zero_elapsed_fraction_is_zero():
    usage = ChannelUsageMonitor(Simulator())
    usage.record_exchange("a", 10.0)
    assert usage.fraction_of_time("a") == 0.0
