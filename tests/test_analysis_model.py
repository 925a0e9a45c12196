"""Tests for the analytic model (Equations 4-13) and baselines."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis import (
    BaselineModel,
    NodeSpec,
    PAPER_TABLE2_TCP_MBPS,
    analytic_baseline_mbps,
    dcf_time_shares,
    predict,
    rf_throughputs,
    tf_throughputs,
    tf_time_shares,
)


def paper_node(name, rate, weight=1.0):
    return NodeSpec(name, rate, beta_mbps=PAPER_TABLE2_TCP_MBPS[rate],
                    weight=weight)


# ----------------------------------------------------------------------
# baseline model
# ----------------------------------------------------------------------
def test_analytic_baseline_close_to_paper():
    for rate, paper in PAPER_TABLE2_TCP_MBPS.items():
        analytic = analytic_baseline_mbps(rate)
        assert analytic == pytest.approx(paper, rel=0.15)


def test_baseline_monotone_in_rate():
    values = [analytic_baseline_mbps(r) for r in (1.0, 2.0, 5.5, 11.0)]
    assert values == sorted(values)


def test_baseline_increases_with_packet_size():
    small = analytic_baseline_mbps(11.0, packet_bytes=500)
    large = analytic_baseline_mbps(11.0, packet_bytes=1500)
    assert large > small


def test_udp_baseline_exceeds_tcp():
    model = BaselineModel()
    assert model.udp_baseline_mbps(11.0) > model.tcp_baseline_mbps(11.0)


def test_contention_gap_shrinks_with_nodes():
    model = BaselineModel()
    assert model.contention_gap_us(4) < model.contention_gap_us(1)
    with pytest.raises(ValueError):
        model.contention_gap_us(0)


def test_unknown_transport_rejected():
    with pytest.raises(ValueError):
        analytic_baseline_mbps(11.0, transport="sctp")


# ----------------------------------------------------------------------
# Eq 4-10 (DCF / RF)
# ----------------------------------------------------------------------
def test_rf_equal_rates_split_equally():
    nodes = [paper_node("a", 11.0), paper_node("b", 11.0)]
    thr = rf_throughputs(nodes)
    assert thr["a"] == pytest.approx(thr["b"])
    assert sum(thr.values()) == pytest.approx(PAPER_TABLE2_TCP_MBPS[11.0])


def test_rf_mixed_rates_equal_throughput():
    """Eq 6: with equal packet sizes every node gets the same rate."""
    nodes = [paper_node("slow", 1.0), paper_node("fast", 11.0)]
    thr = rf_throughputs(nodes)
    assert thr["slow"] == pytest.approx(thr["fast"])


def test_dcf_time_shares_sum_to_one():
    nodes = [paper_node("a", 1.0), paper_node("b", 2.0), paper_node("c", 11.0)]
    shares = dcf_time_shares(nodes)
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["a"] > shares["c"]  # slow node hogs the channel


def test_rf_1v11_matches_paper_figure2():
    nodes = [paper_node("slow", 1.0), paper_node("fast", 11.0)]
    total = predict(nodes).rf_total
    assert total == pytest.approx(1.34, rel=0.06)
    shares = dcf_time_shares(nodes)
    assert shares["slow"] / shares["fast"] == pytest.approx(6.4, rel=0.05)


def test_packet_size_diversity_shifts_shares():
    """Eqs 8-10: same rate, different sizes -> unequal T and R."""
    nodes = [
        NodeSpec("big", 11.0, packet_bytes=1500, beta_mbps=5.189),
        NodeSpec("small", 11.0, packet_bytes=300, beta_mbps=3.0),
    ]
    shares = dcf_time_shares(nodes)
    thr = rf_throughputs(nodes)
    assert shares["big"] > shares["small"]
    assert thr["big"] != pytest.approx(thr["small"])


# ----------------------------------------------------------------------
# Eq 11-13 (TF)
# ----------------------------------------------------------------------
def test_tf_shares_equal():
    nodes = [paper_node("a", 1.0), paper_node("b", 11.0), paper_node("c", 2.0)]
    shares = tf_time_shares(nodes)
    assert all(s == pytest.approx(1 / 3) for s in shares.values())


def test_tf_weighted_shares():
    nodes = [paper_node("gold", 11.0, weight=3.0), paper_node("plain", 11.0)]
    shares = tf_time_shares(nodes)
    assert shares["gold"] == pytest.approx(0.75)


def test_tf_throughput_is_beta_over_n():
    nodes = [paper_node("slow", 1.0), paper_node("fast", 11.0)]
    thr = tf_throughputs(nodes)
    assert thr["slow"] == pytest.approx(PAPER_TABLE2_TCP_MBPS[1.0] / 2)
    assert thr["fast"] == pytest.approx(PAPER_TABLE2_TCP_MBPS[11.0] / 2)


def test_baseline_property():
    """R'(i) is independent of the other nodes' rates (the paper's
    headline property of time-based fairness)."""
    slow = paper_node("slow", 1.0)
    against_fast = tf_throughputs([slow, paper_node("x", 11.0)])["slow"]
    against_slow = tf_throughputs([slow, paper_node("x", 1.0)])["slow"]
    against_mid = tf_throughputs([slow, paper_node("x", 2.0)])["slow"]
    assert against_fast == pytest.approx(against_slow)
    assert against_fast == pytest.approx(against_mid)


def test_rf_equals_tf_for_uniform_nodes():
    nodes = [paper_node("a", 5.5), paper_node("b", 5.5)]
    assert predict(nodes).rf_total == pytest.approx(predict(nodes).tf_total)
    assert rf_throughputs(nodes) == pytest.approx(tf_throughputs(nodes))


def test_table3_values():
    nodes = [
        paper_node("n1", 1.0),
        paper_node("n2", 2.0),
        paper_node("n3", 11.0),
        paper_node("n4", 11.0),
    ]
    p = predict(nodes)
    assert p.rf_per_node["n1"] == pytest.approx(0.436, abs=0.002)
    assert p.rf_total == pytest.approx(1.742, abs=0.01)
    assert p.tf_per_node["n1"] == pytest.approx(0.202, abs=0.002)
    assert p.tf_per_node["n3"] == pytest.approx(1.30, abs=0.01)
    assert p.tf_total == pytest.approx(3.175, abs=0.01)
    assert p.improvement == pytest.approx(0.82, abs=0.01)


def test_empty_node_list_rejected():
    with pytest.raises(ValueError):
        rf_throughputs([])


def test_zero_weights_rejected():
    node = NodeSpec("a", 11.0, beta_mbps=5.0, weight=0.0)
    with pytest.raises(ValueError):
        tf_time_shares([node])


@given(
    st.lists(
        st.sampled_from([1.0, 2.0, 5.5, 11.0]),
        min_size=1,
        max_size=8,
    )
)
def test_model_invariants(rates):
    nodes = [paper_node(f"n{i}", r) for i, r in enumerate(rates)]
    rf_shares = dcf_time_shares(nodes)
    tf_shares = tf_time_shares(nodes)
    assert sum(rf_shares.values()) == pytest.approx(1.0)
    assert sum(tf_shares.values()) == pytest.approx(1.0)
    # TF aggregate always >= RF aggregate (equal sizes), equality iff
    # all rates identical.
    prediction = predict(nodes)
    rf, tf = prediction.rf_total, prediction.tf_total
    assert tf >= rf - 1e-9
    if len(set(rates)) == 1:
        assert tf == pytest.approx(rf)
    else:
        assert tf > rf
