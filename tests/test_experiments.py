"""Smoke + shape tests for every experiment module (short versions)."""

import pytest

from repro.experiments import (
    EXPERIMENTS,
    ablations,
    fig1,
    fig2,
    fig3,
    fig4,
    fig5,
    fig8,
    fig9,
    table1,
    table2,
    table3,
    table4,
)

S = 4.0  # short simulated seconds for smoke tests


def test_registry_complete():
    assert set(EXPERIMENTS) == {
        "fig1", "fig2", "fig3", "fig4", "fig5", "fig8", "fig9",
        "table1", "table2", "table3", "table4", "fairness-churn",
        "fairness-outage",
    } | set(ablations.ABLATIONS)
    for experiment in EXPERIMENTS.values():
        assert callable(experiment.run) and callable(experiment.render)


def test_fig1_shapes():
    result = fig1.run(seed=1, seconds=8.0)
    assert set(result.fractions) == {"WS-1", "WS-2", "WS-3", "EXP-1"}
    for fractions in result.fractions.values():
        assert sum(fractions.values()) == pytest.approx(1.0)
    assert result.below_11_fraction("WS-2") > 0.30
    assert result.at_1_fraction("EXP-1") > 0.40
    assert "EXP-1" in fig1.render(result)


def test_fig1_exp1_rate_adaptation_settles():
    fractions = fig1.run_exp1(seed=2, seconds=8.0)
    # All four 802.11b rates appear (four receivers behind walls).
    assert set(fractions) >= {1.0, 5.5, 11.0}
    assert fractions[1.0] > fractions.get(2.0, 0.0)


def test_fig2_shape():
    result = fig2.run(seed=1, seconds=S)
    assert result.same_rate.total_mbps > 3 * result.mixed.total_mbps
    assert result.channel_time_ratio > 4.0
    assert "Figure 2" in fig2.render(result)


def test_fig3_shape():
    result = fig3.run(seed=1, seconds=S)
    mixed = result.cases[(1.0, 11.0)]
    assert mixed["tf"].total_mbps > 1.5 * mixed["rf"].total_mbps
    same = result.cases[(11.0, 11.0)]
    assert same["tf"].total_mbps == pytest.approx(
        same["rf"].total_mbps, rel=0.12
    )
    assert "Figure 3" in fig3.render(result)


def test_fig4_shape():
    result = fig4.run(seed=1, seconds=S)
    for config, res in result.runs.items():
        thr = list(res.throughput_mbps.values())
        assert max(thr) - min(thr) < 0.6, config
    # UDP beats TCP; up beats down.
    assert result.runs["udp_up"].total_mbps > result.runs["tcp_up"].total_mbps
    assert result.runs["udp_up"].total_mbps > result.runs["udp_down"].total_mbps
    assert "Figure 4" in fig4.render(result)


def test_fig5_shape():
    result = fig5.run(seed=1, seconds=12 * 3600)
    assert result.mean_heaviest_fraction > 0.5
    assert result.solo_fraction < 0.25
    assert result.multi_user_fraction > 0.7
    assert "Figure 5" in fig5.render(result)


def test_fig8_shape():
    result = fig8.run(seed=1, seconds=S)
    for (direction, rate) in result.runs:
        assert abs(result.overhead_fraction(direction, rate)) < 0.15
    assert "Figure 8" in fig8.render(result)


def test_fig9_shape():
    result = fig9.run(seed=1, seconds=S)
    assert result.improvement("down", (1.0, 11.0)) > 0.6
    assert result.improvement("down", (5.5, 11.0)) < 0.2
    assert "Figure 9" in fig9.render(result)


def test_fig9_model_predictions():
    models = fig9.model_predictions((1.0, 11.0))
    assert models["eq6"]["n1"] == pytest.approx(models["eq6"]["n2"])
    assert models["eq12"]["n2"] / models["eq12"]["n1"] == pytest.approx(
        5.189 / 0.806, rel=0.01
    )


def test_table1_shape():
    result = table1.run(seed=1, seconds=60.0)
    assert result.rf.throughput_gap < result.tf.throughput_gap
    assert result.tf.time_gap < result.rf.time_gap
    assert result.tf.avg_task_time_s < result.rf.avg_task_time_s
    assert result.tf.final_task_time_s == pytest.approx(
        result.rf.final_task_time_s, rel=0.15
    )
    assert "Table 1" in table1.render(result)


def test_table2_shape():
    result = table2.run(seed=1, seconds=S)
    for rate, paper in table2.PAPER_TABLE2_TCP_MBPS.items():
        assert result.measured_mbps[rate] == pytest.approx(paper, rel=0.12)
    assert "Table 2" in table2.render(result)


def test_table3_shape():
    result = table3.run(seed=1, seconds=S)
    assert result.prediction.improvement == pytest.approx(0.82, abs=0.02)
    assert result.simulated_tf.total_mbps > 1.4 * result.simulated_rf.total_mbps
    assert "Table 3" in table3.render(result)


def test_table4_shape():
    result = table4.run(seed=1, seconds=S)
    for which in ("normal", "tbr"):
        assert result.throughput[which]["n2"] == pytest.approx(2.1, rel=0.12)
    assert result.throughput["tbr"]["n1"] == pytest.approx(
        result.throughput["normal"]["n1"], rel=0.15
    )
    assert "Table 4" in table4.render(result)


# ----------------------------------------------------------------------
# ablations
# ----------------------------------------------------------------------
def test_ablation_retry_accounting():
    result = EXPERIMENTS["abl-retry"].run(seed=1, seconds=S, loss_rate=0.1)
    # Without retry info the lossy slow node is favoured (paper's bias).
    assert ablations.slow_node_bias(result) > 0.0
    assert "Retry accounting" in ablations.render_retry_accounting(result)


def test_ablation_bucket_depth():
    result = EXPERIMENTS["abl-bucket-depth"].run(
        seed=1, seconds=S, depths_us=(50_000.0, 2_000_000.0),
    )
    shallow_lt, shallow_st = result[50_000.0]
    deep_lt, deep_st = result[2_000_000.0]
    # Deeper buckets hurt short-term fairness (Section 4.5).
    assert shallow_st >= deep_st - 0.02
    assert "Bucket depth" in ablations.render_bucket_depth(result)


def test_ablation_weighted_shares():
    result = EXPERIMENTS["abl-weighted"].run(seed=1, seconds=S)
    assert ablations.occupancy_ratio(result) > 1.7
    assert "Weighted" in ablations.render_weighted_shares(result)


def test_ablation_work_conservation():
    result = EXPERIMENTS["abl-work-conservation"].run(seed=1, seconds=S)
    strict = result["strict"].total_mbps
    borrowing = result["borrowing"].total_mbps
    assert strict > 1.4 * borrowing
    assert "Work conservation" in ablations.render_work_conservation(result)


def test_ablation_client_cooperation():
    result = EXPERIMENTS["abl-cooperation"].run(seed=1, seconds=S)
    without = result["no-agent"].occupancy["n1"]
    with_agent = result["client-agent"].occupancy["n1"]
    assert with_agent < without - 0.15
    assert "Client cooperation" in ablations.render_client_cooperation(result)


def test_ablation_bg_coexistence():
    result = EXPERIMENTS["abl-bg"].run(seed=1, seconds=S)
    assert ablations.g_recovery(result) > 3.0
    assert "coexistence" in ablations.render_bg_coexistence(result)


def test_ablation_oar_comparison():
    # Holds at the short S with the full-length tolerances unchanged.
    result = EXPERIMENTS["abl-oar"].run(seed=1, seconds=S)
    dcf = result["dcf"].throughput_mbps
    oar = result["oar"].throughput_mbps
    tbr = result["tbr"].throughput_mbps
    # DCF equalises throughput; OAR and TBR favour the fast node.
    assert abs(dcf["n1"] - dcf["n2"]) < 0.3
    assert oar["n2"] > 3.0 * oar["n1"]
    assert tbr["n2"] > 2.0 * tbr["n1"]
    # OAR's bursting also amortises contention: highest aggregate.
    assert sum(oar.values()) > sum(tbr.values()) > sum(dcf.values())
    assert "OAR" in ablations.render_oar_comparison(result)


def test_ablation_polling_tbr():
    # Holds at the short S with the full-length tolerances unchanged.
    result = EXPERIMENTS["abl-polling"].run(seed=1, seconds=S)
    rr = result["rr-poll"]["throughput"]
    tbr = result["tbr-poll"]["throughput"]
    # Round-robin polling reproduces the anomaly; token-driven polling
    # restores time fairness with unmodified clients (Section 4.1).
    assert rr["n1"] == pytest.approx(rr["n2"], rel=0.1)
    assert tbr["n2"] > 4.0 * tbr["n1"]
    assert sum(tbr.values()) > 1.5 * sum(rr.values())
    assert "Polling" in ablations.render_polling_tbr(result)
