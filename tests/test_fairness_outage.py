"""The fairness-outage experiment: golden render + re-convergence bound.

Pins the per-phase occupancy-share tables byte for byte and asserts
the substantive claims: after the AP blacks out and every station
re-associates through the jittered rejoin stampede, TBR's shares
return to 1/n_active within a bounded number of FILLEVENTs, while the
FIFO baseline re-converges straight back to the anomaly (the slow
station owning the channel).  The blackout itself must actually
silence the cell.
"""

import pathlib

import pytest

from repro.experiments import fairness_outage
from repro.scenario.registry import fairness_outage_phases
from repro.sim import us_from_s

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: FILLEVENT budget for post-recovery re-convergence: four probe
#: windows of 25 FILLEVENTs each (1 s at the default 10 ms fill
#: interval); the golden run converges in the first window (25).
CONVERGE_BUDGET_FILLS = 100


@pytest.fixture(scope="module")
def result():
    return fairness_outage.run(seed=1, seconds=4.5)


def test_render_matches_golden(result):
    rendered = fairness_outage.render(result) + "\n"
    expected = (GOLDEN_DIR / "fairness_outage_seed1_4p5s.txt").read_text()
    assert rendered == expected


def test_tbr_reconverges_within_fill_budget(result):
    assert result.tbr.converge_fills is not None
    assert result.tbr.converge_fills <= CONVERGE_BUDGET_FILLS


def test_tbr_after_shares_return_to_fair(result):
    run = result.tbr
    fair = 1.0 / run.n_active
    for station, share in run.shares["after"].items():
        assert share == pytest.approx(fair, abs=0.12), (
            f"{station} share {share:.3f} after recovery strays from "
            f"fair share {fair:.3f}"
        )


def test_fifo_baseline_reconverges_to_the_anomaly(result):
    # FIFO re-associates just as well — but the slow station goes
    # right back to owning the channel, so the contrast survives.
    assert result.runs["fifo"].shares["after"]["slow"] > 0.5
    assert result.runs["fifo"].converge_fills is None


def test_blackout_actually_silences_the_cell(result):
    # The down phase's attributed airtime is bounded by the rejoin
    # jitter tail: while the AP is dark nothing can transmit, so the
    # phase cannot contain more airtime than the post-recovery stretch
    # it includes (plus the aborted exchange's residue).
    _, down, up, _ = fairness_outage_phases(4.5, 1.0)
    jitter_tail_us = us_from_s(up) - us_from_s(down + 1.0)
    for scheduler in fairness_outage.SCHEDULERS:
        down_airtime = result.runs[scheduler].down_airtime_us
        assert down_airtime < jitter_tail_us * 1.1, scheduler


def test_phase_helper_rejects_late_outages():
    with pytest.raises(ValueError, match="fairness-outage phases"):
        fairness_outage_phases(3.0, 1.0, outage_at_s=3.5, outage_s=1.0)
