"""Determinism goldens: every experiment's render is byte-identical.

One short seed-1 run per registered experiment, compared with the text
stored under ``tests/golden/``.  The fig8/fig9 files were rendered by
the pre-optimization kernel (the seed-state simulator, before the
tuple-keyed heap, lazy-cancellation compaction, event reuse, PHY
memoization and filtered channel notifications landed); the rest were
rendered by the code as it stood before the experiment layer was
folded onto ``scenario_job``.  Hot-path work and refactors of the
experiment layer are required to be pure: same RNG streams, same event
ordering, same schedules — so these runs must reproduce the stored text
exactly, byte for byte.

An experiment registered without a golden file fails here.
"""

import pathlib

import pytest

from repro.campaign.job import job_params
from repro.experiments import EXPERIMENTS
from repro.experiments.common import competing_job, competing_spec
from repro.scenario.runner import SCENARIO_EXECUTOR, run_spec, scenario_job

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: Measured seconds of each golden run: 1 s unless the experiment needs
#: longer to say anything (three churn phases, an outage plus recovery,
#: an hour of dorm trace, both table-1 uploads completing).
GOLDEN_SECONDS = {
    "fairness-churn": 3.0,
    "fairness-outage": 4.5,
    "fig5": 3600.0,
    "table1": 20.0,
}


def golden_path(name: str) -> pathlib.Path:
    seconds = f"{GOLDEN_SECONDS.get(name, 1.0):g}".replace(".", "p")
    stem = name.replace("-", "_")
    return GOLDEN_DIR / f"{stem}_seed1_{seconds}s.txt"


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_experiment_output_matches_pre_optimization_golden(name):
    path = golden_path(name)
    assert path.exists(), (
        f"experiment {name!r} is registered without a golden: render it "
        f"at seed 1 into {path.name}"
    )
    experiment = EXPERIMENTS[name]
    result = experiment.run(seed=1, seconds=GOLDEN_SECONDS.get(name, 1.0))
    assert experiment.render(result) + "\n" == path.read_text()


# ----------------------------------------------------------------------
# the figures run through the one spec path the sanitizer watches
# ----------------------------------------------------------------------
def _jobs(name, seconds=None):
    if seconds is None:
        seconds = GOLDEN_SECONDS.get(name, 1.0)
    return EXPERIMENTS[name].jobs(seed=1, seconds=seconds)


def test_sanitizer_reaches_the_paper_figures():
    jobs = [job for name in EXPERIMENTS for job in _jobs(name)]
    assert len(jobs) == 77
    scenario = [job for job in jobs if job.executor == SCENARIO_EXECUTOR]
    # Coverage cannot silently shrink: everything but fig 1, fig 5,
    # table 1 and abl-polling is a scenario job (the windowed ones
    # included).
    assert len(scenario) >= 68
    # The sanitizer is observation-only: armed, every one of them holds
    # each invariant and returns the identical result, run with the
    # job's own params (windows included).
    for job in {job.digest: job for job in scenario}.values():
        params = job_params(job)
        assert run_spec(**params, sanitize=True) == run_spec(
            **params, sanitize=False
        ), job.label


def test_a_figure_run_is_the_store_entry_of_its_spec():
    setup = dict(direction="down", scheduler="tbr", seconds=1.0, seed=3)
    job = competing_job("fig9", "k", (1.0, 11.0), **setup)
    spec = competing_spec([1.0, 11.0], **setup)
    assert job.digest == scenario_job(spec).digest


def test_figures_coalesce_their_shared_runs():
    # What repro.campaign.job promises: the same simulation asked for
    # by two figures is one digest (fig3's [1.0, 11.0] list and fig9's
    # (1.0, 11.0) tuple included), so a campaign runs it once.
    digests = {
        name: {job.digest for job in _jobs(name, seconds=1.0)}
        for name in ("fig2", "fig3", "fig9")
    }
    assert len(digests["fig3"] & digests["fig9"]) == 2
    assert len(digests["fig2"] & digests["fig9"]) == 1
    assert len(digests["fig2"] & digests["fig3"]) == 2
