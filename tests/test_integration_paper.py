"""Integration tests: the paper's headline claims, end to end.

These run short (a few simulated seconds) versions of the paper's
experiments and assert *shape*: who wins, by roughly what factor, and
the invariants the paper derives.  ``tests/test_paper_claims.py`` runs
the full-length versions (``slow`` marker).
"""

import pytest

from repro.core import TbrConfig
from repro.experiments.common import run_competing
from repro.node import Cell

SECONDS = 6.0
WARMUP = 2.0


def pair(rates, direction, scheduler, seed=1, tbr_config=None):
    return run_competing(
        rates, direction=direction, scheduler=scheduler,
        seconds=SECONDS, warmup_seconds=WARMUP, seed=seed,
        tbr_config=tbr_config,
    )


# ----------------------------------------------------------------------
# the anomaly (Figure 2)
# ----------------------------------------------------------------------
def test_anomaly_equal_throughput_unequal_time():
    res = pair([1.0, 11.0], "up", "fifo")
    thr = res.throughput_mbps
    assert abs(thr["n1"] - thr["n2"]) / (thr["n1"] + thr["n2"]) < 0.15
    assert res.occupancy["n1"] / res.occupancy["n2"] > 4.0


def test_anomaly_aggregate_collapse():
    same = pair([11.0, 11.0], "up", "fifo")
    mixed = pair([1.0, 11.0], "up", "fifo")
    # Paper: 5.08 -> 1.34, far below the naive average.
    assert mixed.total_mbps < 0.35 * same.total_mbps


def test_same_rate_pairs_fair_and_efficient():
    res = pair([11.0, 11.0], "up", "fifo")
    thr = res.throughput_mbps
    assert res.total_mbps > 4.5
    assert abs(thr["n1"] - thr["n2"]) < 0.5


# ----------------------------------------------------------------------
# TBR restores time fairness (Figures 3 and 9)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("direction", ["up", "down"])
def test_tbr_equalizes_channel_time_1v11(direction):
    res = pair([1.0, 11.0], direction, "tbr")
    occ = res.occupancy
    assert occ["n1"] / occ["n2"] < 2.0  # vs ~7x under DCF


@pytest.mark.parametrize("direction", ["up", "down"])
def test_tbr_aggregate_gain_1v11(direction):
    normal = pair([1.0, 11.0], direction, "fifo")
    tbr = pair([1.0, 11.0], direction, "tbr")
    gain = tbr.total_mbps / normal.total_mbps - 1.0
    assert gain > 0.6  # paper: ~+103%


def test_tbr_gain_shrinks_with_rate_similarity():
    gains = []
    for low in (1.0, 2.0, 5.5):
        normal = pair([low, 11.0], "down", "fifo")
        tbr = pair([low, 11.0], "down", "tbr")
        gains.append(tbr.total_mbps / normal.total_mbps - 1.0)
    assert gains[0] > gains[1] > gains[2] - 0.05
    assert gains[2] < 0.15  # 5.5vs11: small (paper +6%)


def test_tbr_no_overhead_same_rate():
    """Figure 8: same-rate cells perform identically with TBR."""
    for rate in (1.0, 11.0):
        normal = pair([rate, rate], "down", "fifo")
        tbr = pair([rate, rate], "down", "tbr")
        assert tbr.total_mbps == pytest.approx(normal.total_mbps, rel=0.1)


def test_baseline_property_simulated():
    """The 1 Mbps node under TBR-vs-11 gets what it gets vs another
    1 Mbps node under plain DCF (the paper's baseline property)."""
    tf_mixed = pair([1.0, 11.0], "up", "tbr")
    rf_same = pair([1.0, 1.0], "up", "fifo")
    expected = rf_same.throughput_mbps["n1"]
    assert tf_mixed.throughput_mbps["n1"] == pytest.approx(expected, rel=0.25)


def test_fast_node_reaches_half_baseline_under_tbr():
    tf_mixed = pair([1.0, 11.0], "down", "tbr")
    rf_same = pair([11.0, 11.0], "down", "fifo")
    half_baseline = rf_same.total_mbps / 2.0
    assert tf_mixed.throughput_mbps["n2"] == pytest.approx(
        half_baseline, rel=0.25
    )


# ----------------------------------------------------------------------
# rate adjustment (Table 4)
# ----------------------------------------------------------------------
def test_tbr_matches_dcf_with_app_limited_flow():
    results = {}
    for scheduler in ("fifo", "tbr"):
        cell = Cell(seed=1, scheduler=scheduler)
        n1 = cell.add_station("n1", rate_mbps=11.0)
        n2 = cell.add_station("n2", rate_mbps=11.0)
        cell.tcp_flow(n1, direction="up")
        cell.tcp_flow(n2, direction="up", app="paced", paced_mbps=2.1)
        cell.run(seconds=SECONDS, warmup_seconds=WARMUP)
        results[scheduler] = cell.station_throughputs_mbps()
    assert results["tbr"]["n2"] == pytest.approx(2.1, rel=0.1)
    assert results["tbr"]["n1"] == pytest.approx(
        results["fifo"]["n1"], rel=0.12
    )


# ----------------------------------------------------------------------
# four-node Table 3 shape
# ----------------------------------------------------------------------
def test_four_nodes_tf_beats_rf():
    rates = {"n1": 1.0, "n2": 2.0, "n3": 11.0, "n4": 11.0}
    rf = run_competing(rates, direction="up", scheduler="fifo",
                       seconds=SECONDS, warmup_seconds=WARMUP, seed=1)
    tf = run_competing(rates, direction="up", scheduler="tbr",
                       seconds=SECONDS, warmup_seconds=WARMUP, seed=1)
    assert tf.total_mbps / rf.total_mbps > 1.4  # paper: +82%
    # Fast nodes benefit, slow node is not starved.
    assert tf.throughput_mbps["n3"] > 2 * rf.throughput_mbps["n3"]
    assert tf.throughput_mbps["n1"] > 0.1


# ----------------------------------------------------------------------
# work conservation ablation
# ----------------------------------------------------------------------
def test_borrowing_fallback_defeats_uplink_regulation():
    strict = pair([1.0, 11.0], "up", "tbr",
                  tbr_config=TbrConfig(work_conserving=False))
    borrowing = pair([1.0, 11.0], "up", "tbr",
                     tbr_config=TbrConfig(work_conserving=True))
    assert strict.total_mbps > 1.5 * borrowing.total_mbps


# ----------------------------------------------------------------------
# weighted QoS extension
# ----------------------------------------------------------------------
def test_weighted_tbr_biases_occupancy():
    config = TbrConfig(weights={"n1": 3.0, "n2": 1.0}, adjust_interval_us=0)
    res = pair([11.0, 11.0], "down", "tbr", tbr_config=config)
    assert res.occupancy["n1"] / res.occupancy["n2"] > 1.8
    assert res.throughput_mbps["n1"] > 1.8 * res.throughput_mbps["n2"]
