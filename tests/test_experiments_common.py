"""Tests for experiment utilities (rendering, runners)."""

import pytest

from repro.channel import UsageRecord
from repro.core.tbr import TbrConfig
from repro.experiments.common import (
    fmt_frac,
    fmt_mbps,
    fmt_table,
    run_competing,
)
from repro.node.cell import Cell
from repro.scenario.runner import windowed_occupancy
from repro.sim import us_from_s


def test_fmt_table_alignment():
    out = fmt_table(["name", "value"], [["a", 1], ["longer", 22]])
    lines = out.splitlines()
    assert lines[0].startswith("name")
    assert "---" in lines[1]
    assert len({len(line) for line in lines}) == 1  # rectangular


def test_fmt_table_title():
    out = fmt_table(["x"], [["1"]], title="My Table")
    assert out.splitlines()[0] == "My Table"


def test_fmt_helpers():
    assert fmt_mbps(1.23456) == "1.235"
    assert fmt_frac(0.5) == "0.500"


def test_run_competing_accepts_dict_and_list():
    a = run_competing({"alpha": 11.0}, seconds=0.5, warmup_seconds=0.0)
    assert set(a.throughput_mbps) == {"alpha"}
    b = run_competing([11.0, 11.0], seconds=0.5, warmup_seconds=0.0)
    assert set(b.throughput_mbps) == {"n1", "n2"}


def test_run_competing_udp_transport():
    res = run_competing(
        [11.0], transport="udp", udp_rate_mbps=1.0, direction="down",
        seconds=1.0, warmup_seconds=0.0,
    )
    assert res.throughput_mbps["n1"] == pytest.approx(1.0, rel=0.15)


def test_run_competing_rejects_bad_transport():
    with pytest.raises(ValueError):
        run_competing([11.0], transport="sctp", seconds=0.1)


def test_run_competing_rejects_degenerate_measurement_window():
    # A non-positive measurement window would make every throughput and
    # occupancy figure a division by zero.
    with pytest.raises(ValueError, match="measurement window"):
        run_competing([11.0], seconds=0.0)
    with pytest.raises(ValueError, match="measurement window"):
        run_competing([11.0], seconds=-1.0, warmup_seconds=3.0)
    with pytest.raises(ValueError, match="warmup_seconds"):
        run_competing([11.0], seconds=1.0, warmup_seconds=-0.5)


def test_run_competing_allows_warmup_longer_than_measurement():
    # The windows are additive (warm up, then measure), so a warm-up
    # exceeding the measurement window is valid — the golden fig8/fig9
    # runs measure 1 s after a 3 s warm-up.
    res = run_competing([11.0], seconds=0.5, warmup_seconds=1.0)
    assert res.seconds == 0.5
    assert res.total_mbps > 0


def test_competing_result_total():
    res = run_competing([11.0, 11.0], seconds=0.5, warmup_seconds=0.0)
    assert res.total_mbps == pytest.approx(sum(res.throughput_mbps.values()))
    assert res.scheduler == "fifo"


# ----------------------------------------------------------------------
# windowed_occupancy: the one reducer of usage records
# ----------------------------------------------------------------------
def test_windowed_occupancy_matches_stepped_snapshot_diffs():
    # The bucket-depth cell (1 vs 11 Mbps downlink TCP under TBR, 2 s
    # warm-up), reduced both ways over four 0.5 s windows: the reducer
    # over one run's records, and a loop that runs window by window and
    # diffs the channel's sums.
    def bucket_depth_cell():
        config = TbrConfig(bucket_depth_us=100_000.0, initial_tokens_us=20_000.0)
        cell = Cell(seed=1, scheduler="tbr", tbr_config=config)
        for name, rate in (("n1", 1.0), ("n2", 11.0)):
            cell.tcp_flow(cell.add_station(name, rate_mbps=rate), direction="down")
        cell.run(0.0, warmup_seconds=2.0)
        return cell

    stepped = bucket_depth_cell()
    stepped.channel.records = []
    edges_us = [stepped.sim.now]
    cuts = [0]  # index of each window's first record
    diffs, prev = [], stepped.channel.occupancies_us()
    for _ in range(4):
        stepped.sim.run(until=stepped.sim.now + us_from_s(0.5))
        edges_us.append(stepped.sim.now)
        cuts.append(len(stepped.channel.records))
        now = stepped.channel.occupancies_us()
        diffs.append({s: now[s] - prev.get(s, 0.0) for s in now})
        prev = now

    recorded = bucket_depth_cell()
    recorded.channel.records = []
    recorded.sim.run(until=edges_us[-1])
    assert recorded.channel.records == stepped.channel.records  # runs compose
    windows = windowed_occupancy(recorded.channel.records, edges_us, ["n1", "n2"])

    assert len(windows) == 4
    for window, diff, lo, hi in zip(windows, diffs, cuts, cuts[1:]):
        # Membership is exact: a window holds the records its step made.
        made = {"n1": 0.0, "n2": 0.0}
        for record in stepped.channel.records[lo:hi]:
            made[record.station] += record.airtime_us
        assert window == made
        assert set(diff) == {"n1", "n2"}
        assert all(used > 0 for used in diff.values())
        for station, used in diff.items():
            assert window[station] == pytest.approx(used, rel=1e-12)


def test_windowed_occupancy_edge_record_counts_in_the_later_window():
    records = [
        UsageRecord(0.0, "a", 1.0),  # on the first edge: window 0
        UsageRecord(10.0, "a", 2.0),  # on an inner edge: window 1
        UsageRecord(10.0, "b", 4.0),
        UsageRecord(20.0, "a", 8.0),  # on the last edge: nowhere
        UsageRecord(-1.0, "a", 16.0),  # before the first: nowhere
        UsageRecord(5.0, "ghost", 32.0),  # not asked for: nowhere
    ]
    assert windowed_occupancy(records, [0.0, 10.0, 20.0], ["a", "b"]) == [
        {"a": 1.0, "b": 0.0},
        {"a": 2.0, "b": 4.0},
    ]
