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

from repro.campaign.executor import serial_results
from repro.campaign.registry import campaign_registry

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

REGISTRY = campaign_registry()


def golden_path(name: str) -> pathlib.Path:
    seconds = f"{GOLDEN_SECONDS.get(name, 1.0):g}".replace(".", "p")
    stem = name.replace("-", "_")
    return GOLDEN_DIR / f"{stem}_seed1_{seconds}s.txt"


@pytest.mark.parametrize("name", list(REGISTRY))
def test_experiment_output_matches_pre_optimization_golden(name):
    path = golden_path(name)
    assert path.exists(), (
        f"experiment {name!r} is registered without a golden: render it "
        f"at seed 1 into {path.name}"
    )
    experiment = REGISTRY[name]
    jobs = experiment.build_jobs(
        seed=1, seconds=GOLDEN_SECONDS.get(name, 1.0)
    )
    rendered = experiment.render(experiment.reduce(serial_results(jobs)))
    assert rendered + "\n" == path.read_text()
