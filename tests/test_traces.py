"""Tests for trace records, sniffing, synthesis and analysis."""

import statistics

import pytest

from repro.node import Cell
from repro.traces import (
    BusyInterval,
    ChannelSniffer,
    DormTraceConfig,
    PAPER_WORKSHOP_MIXES,
    TraceRecord,
    WorkshopTraceConfig,
    busy_intervals,
    bytes_by_rate,
    generate_dorm_trace,
    generate_workshop_trace,
    heaviest_user_fractions,
    rate_fractions,
)


def rec(t, station="u", size=1000, rate=11.0, direction="down"):
    return TraceRecord(t, station, size, rate, direction)


# ----------------------------------------------------------------------
# rate fractions (Figure 1 statistic)
# ----------------------------------------------------------------------
def test_rate_fractions():
    records = [rec(0, rate=1.0, size=300), rec(1, rate=11.0, size=700)]
    fractions = rate_fractions(records)
    assert fractions[1.0] == pytest.approx(0.3)
    assert fractions[11.0] == pytest.approx(0.7)
    assert bytes_by_rate(records) == {1.0: 300, 11.0: 700}


def test_rate_fractions_empty():
    assert rate_fractions([]) == {}


# ----------------------------------------------------------------------
# busy intervals (Figure 5 statistic)
# ----------------------------------------------------------------------
def test_busy_interval_threshold():
    # 4 Mbps over 1 s = 500000 bytes.
    quiet = [rec(t * 1e5, size=10_000) for t in range(10)]  # 0.8 Mbps
    busy = [rec(1e6 + t * 1e5, size=60_000) for t in range(10)]  # 4.8 Mbps
    intervals = busy_intervals(quiet + busy, threshold_mbps=4.0)
    assert len(intervals) == 1
    assert intervals[0].index == 1
    assert intervals[0].throughput_mbps == pytest.approx(4.8)


def test_heaviest_user_fraction():
    records = [
        rec(0.0, station="a", size=600_000),
        rec(1000.0, station="b", size=200_000),
    ]
    intervals = busy_intervals(records, threshold_mbps=4.0)
    assert intervals[0].heaviest_station == "a"
    assert intervals[0].heaviest_fraction == pytest.approx(0.75)
    assert intervals[0].active_stations == 2
    assert heaviest_user_fractions(records) == [pytest.approx(0.75)]


def test_busy_interval_width_validation():
    with pytest.raises(ValueError):
        busy_intervals([], width_us=0.0)


# ----------------------------------------------------------------------
# workshop generator
# ----------------------------------------------------------------------
def test_workshop_trace_matches_configured_mix():
    config = WorkshopTraceConfig(
        session="WS-2", total_bytes=10_000_000, n_users=15
    )
    records = generate_workshop_trace(config, seed=3)
    fractions = rate_fractions(records)
    for rate, target in PAPER_WORKSHOP_MIXES["WS-2"].items():
        assert fractions[rate] == pytest.approx(target, abs=0.02)


def test_workshop_trace_sorted_and_within_duration():
    config = WorkshopTraceConfig(total_bytes=1_000_000, duration_s=60.0)
    records = generate_workshop_trace(config, seed=1)
    times = [r.time_us for r in records]
    assert times == sorted(times)
    assert times[-1] <= 60.0 * 1e6


def test_workshop_custom_mix_and_validation():
    config = WorkshopTraceConfig(
        session="custom", total_bytes=1_000_000,
        rate_mix={1.0: 0.5, 11.0: 0.5},
    )
    fractions = rate_fractions(generate_workshop_trace(config, seed=1))
    assert set(fractions) == {1.0, 11.0}
    with pytest.raises(ValueError):
        generate_workshop_trace(
            WorkshopTraceConfig(session="nope"), seed=1
        )
    with pytest.raises(ValueError):
        generate_workshop_trace(
            WorkshopTraceConfig(rate_mix={1.0: 0.4}), seed=1
        )


def test_workshop_deterministic():
    config = WorkshopTraceConfig(total_bytes=500_000)
    a = generate_workshop_trace(config, seed=9)
    b = generate_workshop_trace(config, seed=9)
    assert a == b


# ----------------------------------------------------------------------
# dorm generator (Figure 5 shape)
# ----------------------------------------------------------------------
def test_dorm_trace_reproduces_paper_shape():
    records = generate_dorm_trace(DormTraceConfig(duration_s=24 * 3600), seed=2)
    fractions = heaviest_user_fractions(records)
    intervals = busy_intervals(records)
    assert len(intervals) > 100
    # Majority share on average, rarely solo, mostly multi-user.
    assert statistics.mean(fractions) > 0.5
    solo = sum(1 for f in fractions if f > 0.999) / len(fractions)
    assert solo < 0.25
    multi = sum(1 for i in intervals if i.active_stations > 1) / len(intervals)
    assert multi > 0.7


def test_dorm_trace_heavy_sessions_do_not_stack():
    config = DormTraceConfig(duration_s=2 * 3600, heavy_sessions=40)
    records = generate_dorm_trace(config, seed=1)
    heavy_per_second = {}
    for r in records:
        if r.station == "heavy":
            second = int(r.time_us // 1e6)
            heavy_per_second[second] = heavy_per_second.get(second, 0) + r.size_bytes
    max_mbps = max(b * 8 / 1e6 for b in heavy_per_second.values())
    assert max_mbps < 4.0  # a single laptop can't exceed its TCP ceiling


# ----------------------------------------------------------------------
# live sniffer
# ----------------------------------------------------------------------
def test_sniffer_captures_live_cell_traffic():
    cell = Cell(seed=1)
    sniffer = ChannelSniffer(cell.channel)
    station = cell.add_station("n1", rate_mbps=11.0)
    cell.tcp_flow(station, direction="down")
    cell.run(seconds=1.0)
    assert sniffer.records
    down = [r for r in sniffer.records if r.direction == "down"]
    up = [r for r in sniffer.records if r.direction == "up"]
    assert down and up  # data down, TCP acks up
    assert all(r.station == "n1" for r in sniffer.records)
    assert all(r.rate_mbps == 11.0 for r in down)
    # Sniffed downlink bytes must match the flow's delivered bytes
    # closely (no losses configured).
    delivered = cell.flows[0].stats.bytes_delivered
    sniffed = sum(r.size_bytes for r in down)
    assert sniffed >= delivered


def test_sniffer_ignores_acks_and_counts_collisions():
    cell = Cell(seed=2)
    sniffer = ChannelSniffer(cell.channel)
    for i in range(3):
        st = cell.add_station(f"n{i}", rate_mbps=11.0)
        cell.tcp_flow(st, direction="up")
    cell.run(seconds=2.0)
    # With three saturated uplinks some collisions must have occurred.
    assert sniffer.corrupted_frames > 0
    # 14-byte MAC ACK control frames never appear as records.
    assert all(r.size_bytes > 14 for r in sniffer.records)
