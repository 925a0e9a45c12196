"""The fairness-churn experiment: golden render + convergence bounds.

Pins the per-phase occupancy-share tables byte for byte (same contract
as the fig8/fig9 goldens) and asserts the substantive claims: under
TBR every phase's shares sit near 1/n_active, and after the true leave
the survivors re-converge to 1/n_active within a bounded number of
FILLEVENTs.  The FIFO baseline must keep showing the anomaly — the
slow station hogging the channel whenever it is present — or the
contrast the experiment exists to demonstrate has silently vanished.
"""

import pathlib

import pytest

from repro.experiments import fairness_churn

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: FILLEVENT budget for post-leave re-convergence: four probe windows
#: of 25 FILLEVENTs each (1 s at the default 10 ms fill interval); the
#: golden run converges in the first window (25).
CONVERGE_BUDGET_FILLS = 100


@pytest.fixture(scope="module")
def result():
    return fairness_churn.run(seed=1, seconds=3.0)


def test_render_matches_golden(result):
    rendered = fairness_churn.render(result) + "\n"
    expected = (GOLDEN_DIR / "fairness_churn_seed1_3s.txt").read_text()
    assert rendered == expected


def test_tbr_shares_track_fair_share_in_every_phase(result):
    run = result.tbr
    for phase in fairness_churn.PHASES:
        fair = 1.0 / run.n_active[phase]
        shares = run.shares[phase]
        active = [s for s in shares if not (phase == "away" and s == "leaver")]
        for station in active:
            assert shares[station] == pytest.approx(fair, abs=0.12), (
                f"{station} share {shares[station]:.3f} in phase {phase!r} "
                f"strays from fair share {fair:.3f}"
            )


def test_departed_station_stops_consuming_channel_time(result):
    # While away, the leaver's only attributable airtime is the frame
    # that was already in flight at the instant it left.
    for scheduler in fairness_churn.SCHEDULERS:
        away = result.runs[scheduler].shares["away"]
        assert away.get("leaver", 0.0) < 0.01


def test_post_leave_shares_reconverge_within_fill_budget(result):
    assert result.tbr.converge_fills is not None
    assert result.tbr.converge_fills <= CONVERGE_BUDGET_FILLS


def test_fifo_baseline_still_shows_the_anomaly(result):
    # The 1 Mbps leaver hogs the channel under FIFO whenever present —
    # the motivating anomaly; TBR holds it to its time share.
    assert result.runs["fifo"].shares["before"]["leaver"] > 0.45
    assert result.tbr.shares["before"]["leaver"] < 0.40
