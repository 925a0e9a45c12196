"""Parallel/serial parity: campaign execution must be byte-identical.

The golden files under ``tests/golden/`` *are* the serial fig8/fig9
renders (pinned since the seed-state kernel), so comparing a campaign
run against them proves the multi-process executor changes nothing:
not the RNG streams, not the merge order, not a single formatted digit.
The full fig8+fig9 campaign at ``--jobs 4`` is marked ``slow`` (set
``REPRO_RUN_SLOW=1``); tier-1 runs the same machinery as a small-N
smoke (fig9 only, 2 workers) under a wall-clock budget, mirroring
``tests/test_perf_event_budget.py``'s N=16 budget pattern.
"""

import pathlib
import time

import pytest

from repro.campaign import ResultStore, run_jobs
from repro.experiments import fig8, fig9

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: Wall-clock budget for the tier-1 smoke campaign.  Generous — the
#: run takes a few seconds even on one slow core — but catches the
#: executor hanging (a worker deadlock would otherwise block forever).
SMOKE_WALL_BUDGET_S = 120.0


def campaign_render(module, name, outcome):
    return module.render(module.reduce(outcome.experiment_results(name))) + "\n"


@pytest.mark.slow
def test_fig8_fig9_jobs4_byte_identical_to_serial_goldens(tmp_path):
    """One mixed campaign, 4 workers: renders must equal the goldens,
    and a warm-cache rerun must reproduce them without executing."""
    jobs = fig8.jobs(seed=1, seconds=1.0) + fig9.jobs(seed=1, seconds=1.0)
    cache = ResultStore(tmp_path / "cache")

    cold = run_jobs(jobs, workers=4, cache=cache)
    assert cold.stats.executed == cold.stats.unique
    assert campaign_render(fig8, "fig8", cold) == (
        GOLDEN_DIR / "fig8_seed1_1s.txt"
    ).read_text()
    assert campaign_render(fig9, "fig9", cold) == (
        GOLDEN_DIR / "fig9_seed1_1s.txt"
    ).read_text()

    warm = run_jobs(jobs, workers=4, cache=cache)
    assert warm.stats.executed == 0
    assert warm.stats.cached == warm.stats.unique
    assert campaign_render(fig8, "fig8", warm) == campaign_render(
        fig8, "fig8", cold
    )
    assert campaign_render(fig9, "fig9", warm) == campaign_render(
        fig9, "fig9", cold
    )


def test_smoke_fig9_parallel_matches_golden_within_budget(tmp_path):
    """Tier-1 smoke: fig9 through 2 workers is byte-identical to the
    serial golden, the warm rerun executes nothing, and the whole thing
    lands within the wall budget."""
    jobs = fig9.jobs(seed=1, seconds=1.0)
    cache = ResultStore(tmp_path / "cache")

    t0 = time.perf_counter()
    cold = run_jobs(jobs, workers=2, cache=cache)
    warm = run_jobs(jobs, workers=2, cache=cache)
    wall = time.perf_counter() - t0

    golden = (GOLDEN_DIR / "fig9_seed1_1s.txt").read_text()
    assert campaign_render(fig9, "fig9", cold) == golden
    assert campaign_render(fig9, "fig9", warm) == golden
    assert cold.stats.executed == cold.stats.unique > 0
    assert warm.stats.executed == 0
    assert warm.stats.cached == warm.stats.unique
    assert wall < SMOKE_WALL_BUDGET_S
    # The warm pass must be dominated by the cold one: results come off
    # disk, not out of fresh simulations.
    assert warm.stats.wall_s < cold.stats.wall_s / 2
