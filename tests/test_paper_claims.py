"""The paper's claims at full duration, one test per figure, table and
ablation.

``tests/test_experiments.py`` and ``tests/test_integration_paper.py``
check the same shapes in tier-1 on runs of a few simulated seconds, with
tolerances loosened to match.  These run each experiment at the length
and tolerance its claim was written for (about 50 s in all), so they
sit behind the ``slow`` marker: ``REPRO_RUN_SLOW=1 python -m pytest
tests/test_paper_claims.py``.  CI runs them on every push.
"""

import pytest

from repro.analysis.baseline import PAPER_TABLE2_TCP_MBPS
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

pytestmark = pytest.mark.slow


# ----------------------------------------------------------------------
# figures
# ----------------------------------------------------------------------
def test_fig1_rate_diversity():
    result = fig1.run(seed=1, seconds=20.0)
    # Paper: WS-2 carries >30% of bytes below 11 Mbps; EXP-1 carries
    # >50% at 1 Mbps.
    assert result.below_11_fraction("WS-2") > 0.30
    assert result.at_1_fraction("EXP-1") > 0.50


def test_fig2_motivation():
    result = fig2.run(seed=1, seconds=15.0)
    # Paper shape: 11vs11 ~5.08 total; 1vs11 ~1.34 total; slow node
    # occupies ~6.4x the fast node's channel time.
    assert result.same_rate.total_mbps == pytest.approx(
        fig2.PAPER_TOTAL_11V11, rel=0.15
    )
    assert result.mixed.total_mbps == pytest.approx(
        fig2.PAPER_TOTAL_11V1, rel=0.15
    )
    assert result.channel_time_ratio == pytest.approx(
        fig2.PAPER_CHANNEL_TIME_RATIO_11V1, rel=0.3
    )


def test_fig3_fairness_notions():
    result = fig3.run(seed=1, seconds=15.0)
    same_fast = result.cases[(11.0, 11.0)]
    mixed = result.cases[(1.0, 11.0)]
    same_slow = result.cases[(1.0, 1.0)]

    # Same-rate combos identical under both notions.
    for combo in (same_fast, same_slow):
        assert combo["tf"].total_mbps == pytest.approx(
            combo["rf"].total_mbps, rel=0.1
        )
    # Mixed: RF equalizes throughput, TF equalizes channel time.  The
    # occupancy contrast is the claim: ~7x under RF, near parity under
    # TF (the slow node's true airtime keeps a margin of uncharged
    # contention overhead, so parity is approximate).
    rf_thr = mixed["rf"].throughput_mbps
    assert rf_thr["n1"] == pytest.approx(rf_thr["n2"], rel=0.2)
    rf_occ = mixed["rf"].occupancy
    tf_occ = mixed["tf"].occupancy
    assert rf_occ["n1"] / rf_occ["n2"] > 4.0
    assert tf_occ["n1"] / tf_occ["n2"] < 1.6
    # TF's mixed-rate aggregate roughly doubles RF's (paper: 2.9 vs 1.4).
    assert mixed["tf"].total_mbps > 1.7 * mixed["rf"].total_mbps
    # Paper bar values for the TF mixed case: ~(0.40, 2.52).
    tf_thr = mixed["tf"].throughput_mbps
    paper_n1, paper_n2 = fig3.PAPER_THROUGHPUT[(1.0, 11.0)]["tf"]
    assert tf_thr["n1"] == pytest.approx(paper_n1, rel=0.25)
    assert tf_thr["n2"] == pytest.approx(paper_n2, rel=0.15)


def test_fig4_single_rate_sharing():
    result = fig4.run(seed=1, seconds=15.0)
    for config, res in result.runs.items():
        thr = list(res.throughput_mbps.values())
        spread = (max(thr) - min(thr)) / (sum(thr) / 3)
        assert spread < 0.35, f"{config}: unequal shares {thr}"
    # Paper's orderings: UDP > TCP (ack overhead), up > down (the AP's
    # mandatory post-tx backoff caps a single sender).
    assert result.runs["udp_up"].total_mbps > result.runs["tcp_up"].total_mbps
    assert result.runs["udp_down"].total_mbps > result.runs["tcp_down"].total_mbps
    assert result.runs["udp_up"].total_mbps > result.runs["udp_down"].total_mbps
    assert result.runs["tcp_up"].total_mbps > result.runs["tcp_down"].total_mbps


def test_fig5_heaviest_user():
    result = fig5.run(seed=1)
    # Paper's reading of the Whittemore data: the heaviest user moves
    # the majority of bytes on average, yet rarely saturates a busy
    # second alone — other users are active in most busy intervals.
    assert len(result.intervals) > 200
    assert result.mean_heaviest_fraction > 0.5
    assert result.solo_fraction < 0.2
    assert result.multi_user_fraction > 0.8


def test_fig8_same_rate_tbr():
    result = fig8.run(seed=1, seconds=12.0)
    # Paper: "Exp-TBR and Exp-Normal yield almost identical results".
    for (direction, rate) in result.runs:
        overhead = result.overhead_fraction(direction, rate)
        assert abs(overhead) < 0.1, (direction, rate, overhead)


def test_fig9_multirate_tbr():
    result = fig9.run(seed=1, seconds=15.0)
    for direction in fig9.DIRECTIONS:
        # Gains ordered and sized as in the paper (+103/+35/+6 %).
        gains = {
            pair: result.improvement(direction, pair) for pair in fig9.PAIRS
        }
        assert gains[(1.0, 11.0)] > 0.6
        assert gains[(1.0, 11.0)] > gains[(2.0, 11.0)] > gains[(5.5, 11.0)] - 0.05
        assert gains[(5.5, 11.0)] < 0.2

        # Exp-Normal tracks Eq6; Exp-TBR tracks Eq12.
        for pair in fig9.PAIRS:
            models = fig9.model_predictions(pair)
            entry = result.runs[(direction, pair)]
            assert entry["normal"].total_mbps == pytest.approx(
                sum(models["eq6"].values()), rel=0.2
            )
            assert entry["tbr"].total_mbps == pytest.approx(
                sum(models["eq12"].values()), rel=0.2
            )

    # Baseline property: the slow node's TF throughput equals half the
    # 1 Mbps baseline regardless of the fast peer.
    tf_1v11 = result.runs[("up", (1.0, 11.0))]["tbr"]
    assert tf_1v11.throughput_mbps["n1"] == pytest.approx(
        PAPER_TABLE2_TCP_MBPS[1.0] / 2, rel=0.3
    )


# ----------------------------------------------------------------------
# tables
# ----------------------------------------------------------------------
def test_table1_measures():
    result = table1.run(seed=1, seconds=120.0)
    # The paper's qualitative table, row by row.
    assert result.rf.throughput_gap < result.tf.throughput_gap  # RF better
    assert result.tf.time_gap < result.rf.time_gap  # TF better
    assert result.tf.final_task_time_s == pytest.approx(
        result.rf.final_task_time_s, rel=0.1
    )  # same
    assert result.tf.avg_task_time_s < 0.8 * result.rf.avg_task_time_s  # TF better
    # Analytic fluid model agrees with the simulation within 15%.
    analytic_tf = result.analytic["tf"].avg_task_time_us / 1e6
    assert result.tf.avg_task_time_s == pytest.approx(analytic_tf, rel=0.15)


def test_table2_baselines():
    result = table2.run(seed=1, seconds=15.0)
    # Simulated baselines within 10% of the paper's measurements, and
    # strictly ordered by rate.
    for rate, paper in PAPER_TABLE2_TCP_MBPS.items():
        assert result.measured_mbps[rate] == pytest.approx(paper, rel=0.10)
    ordered = [result.measured_mbps[r] for r in sorted(result.measured_mbps)]
    assert ordered == sorted(ordered)


def test_table3_four_nodes():
    result = table3.run(seed=1, seconds=20.0)

    # The analytic table reproduces the paper exactly.
    pred = result.prediction
    assert pred.rf_total == pytest.approx(table3.PAPER_RF_TOTAL, abs=0.01)
    assert pred.tf_total == pytest.approx(table3.PAPER_TF_TOTAL, abs=0.01)
    assert pred.improvement == pytest.approx(0.82, abs=0.01)

    # The simulation reproduces the shape: RF equalizes, TF restores
    # the fast nodes, slow node keeps its all-slow-cell baseline.
    rf = result.simulated_rf.throughput_mbps
    tf = result.simulated_tf.throughput_mbps
    assert max(rf.values()) - min(rf.values()) < 0.25
    assert tf["n3"] > 2.5 * rf["n3"]
    assert tf["n1"] == pytest.approx(table3.PAPER_TF["n1"], rel=0.4)
    gain = result.simulated_tf.total_mbps / result.simulated_rf.total_mbps - 1
    assert gain > 0.5


def test_table4_rate_adjustment():
    result = table4.run(seed=1, seconds=15.0)
    # Paper: "There is no significant difference between the two sets of
    # results" — TBR must not cap the unconstrained flow at 50%.
    for which in ("normal", "tbr"):
        thr = result.throughput[which]
        paper = table4.PAPER[which]
        assert thr["n2"] == pytest.approx(paper["n2"], rel=0.1)
        assert thr["n1"] == pytest.approx(paper["n1"], rel=0.1)
    assert result.throughput["tbr"]["n1"] == pytest.approx(
        result.throughput["normal"]["n1"], rel=0.05
    )


# ----------------------------------------------------------------------
# ablations and extensions
# ----------------------------------------------------------------------
def test_ablation_bucket_depth():
    result = EXPERIMENTS["abl-bucket-depth"].run(seed=1, seconds=12.0)
    depths = sorted(result)
    shallow = result[depths[0]]
    deepest = result[depths[-1]]
    # Long-term fairness holds for sane depths; very deep buckets allow
    # long bursts and degrade the short-window Jain index.
    assert shallow[0] > 0.95
    assert deepest[1] <= shallow[1] + 0.02


def test_ablation_retry_accounting():
    # Paper Section 5: "Without the retransmission information, TBR in
    # this case slightly biased the node sending at a lower data rate,
    # thus decreasing the total throughput by a small amount compared
    # to Eq12."
    result = EXPERIMENTS["abl-retry"].run(seed=1, seconds=15.0)
    # Blind accounting favours the lossy slow node; oracle accounting
    # (true attempt counts) restores the fast node and the total.
    assert ablations.slow_node_bias(result) > 0.0
    blind_total = sum(result["blind"].values())
    oracle_total = sum(result["oracle"].values())
    assert oracle_total > blind_total


def test_ablation_work_conservation():
    result = EXPERIMENTS["abl-work-conservation"].run(seed=1, seconds=15.0)
    strict = result["strict"].throughput_mbps
    borrowing = result["borrowing"].throughput_mbps
    # Borrowing re-releases withheld TCP acks and collapses back to
    # throughput fairness; strict mode keeps the TF gain.
    assert sum(strict.values()) > 1.5 * sum(borrowing.values())
    assert abs(borrowing["n1"] - borrowing["n2"]) < 0.3


def test_extension_bg_coexistence():
    result = EXPERIMENTS["abl-bg"].run(seed=1, seconds=15.0)
    # Stock AP: the g client is dragged to b-class throughput (or
    # worse); TBR restores several-fold more.
    assert result["normal"].throughput_mbps["g1"] < 1.0
    assert ablations.g_recovery(result) > 3.0
    assert result["tbr"].throughput_mbps["g1"] > 3.0


def test_extension_client_cooperation():
    result = EXPERIMENTS["abl-cooperation"].run(seed=1, seconds=15.0)
    # Without cooperation the slow UDP source keeps DCF's outsized
    # share; the notification bit pulls it down and the fast station's
    # throughput up.
    assert result["client-agent"].occupancy["n1"] < (
        result["no-agent"].occupancy["n1"] - 0.2
    )
    assert (
        result["client-agent"].throughput_mbps["n2"]
        > 2.0 * result["no-agent"].throughput_mbps["n2"]
    )


def test_extension_oar_baseline():
    result = EXPERIMENTS["abl-oar"].run(seed=1, seconds=15.0)
    dcf = result["dcf"].throughput_mbps
    oar = result["oar"].throughput_mbps
    tbr = result["tbr"].throughput_mbps
    # DCF: throughput-fair; OAR and TBR: time-fair (fast node restored).
    assert abs(dcf["n1"] - dcf["n2"]) < 0.3
    assert oar["n2"] > 3.0 * oar["n1"]
    assert tbr["n2"] > 2.0 * tbr["n1"]
    # OAR's bursting amortizes contention: highest aggregate of the three.
    assert sum(oar.values()) > sum(tbr.values()) > sum(dcf.values())
    # OAR holds near-equal time shares.
    occ = result["oar"].occupancy
    assert occ["n1"] / occ["n2"] < 1.6


def test_extension_polling_tbr():
    result = EXPERIMENTS["abl-polling"].run(seed=1, seconds=5.0)
    rr = result["rr-poll"]["throughput"]
    tbr = result["tbr-poll"]["throughput"]
    # Round-robin polling reproduces the anomaly (equal throughputs);
    # token-driven polling restores time fairness with unmodified
    # clients — the paper's Section 4.1 observation.
    assert rr["n1"] == pytest.approx(rr["n2"], rel=0.1)
    assert tbr["n2"] > 4.0 * tbr["n1"]
    assert sum(tbr.values()) > 1.5 * sum(rr.values())
    assert result["tbr-poll"]["charged_time_ratio"] == pytest.approx(
        1.0, rel=0.3
    )


def test_extension_weighted_shares():
    result = EXPERIMENTS["abl-weighted"].run(seed=1, seconds=15.0)
    # A 3:1 weight shows up as a clear occupancy and throughput bias
    # (the ratio undershoots 3.0 slightly because contention overhead
    # is unweighted).
    assert ablations.occupancy_ratio(result) > 2.0
    throughput = result["weighted"].throughput_mbps
    assert throughput["n1"] > 2.0 * throughput["n2"]
