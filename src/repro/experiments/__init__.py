"""One module per paper figure/table, plus ablations and extensions.

:data:`EXPERIMENTS` is the one name -> :class:`Experiment` table that
``python -m repro``, ``python -m repro campaign`` and the tests
iterate::

    from repro.experiments import EXPERIMENTS
    for experiment in EXPERIMENTS.values():
        print(experiment.render(experiment.run(seed=1)))

A figure/table module contributes its ``jobs`` / ``reduce`` / ``render``;
an ablation is a row of :data:`ablations.ABLATIONS` reduced by ``dict``.
Every job factory takes ``seed`` and ``seconds``.
"""

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Hashable, List, Mapping

from repro.campaign.executor import serial_results
from repro.campaign.job import Job
from repro.experiments import (
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
    ablations,
    fairness_churn,
    fairness_outage,
)


@dataclass(frozen=True)
class Experiment:
    """One selectable experiment: job factory + reducer + renderer."""

    name: str
    summary: str
    jobs: Callable[..., List[Job]]
    reduce: Callable[[Mapping[Hashable, Any]], Any]
    render: Callable[[Any], str]

    def run(self, **knobs: Any) -> Any:
        """Serial, in-process: one fresh simulation per job."""
        return self.reduce(serial_results(self.jobs(**knobs)))


def _summary(doc: str) -> str:
    """A docstring's first paragraph on one line."""
    return " ".join(doc.strip().split("\n\n")[0].split())


EXPERIMENTS: Dict[str, Experiment] = {
    name: Experiment(
        name, _summary(module.__doc__), module.jobs, module.reduce,
        module.render,
    )
    for name, module in (
        ("fig1", fig1),
        ("fig2", fig2),
        ("fig3", fig3),
        ("fig4", fig4),
        ("fig5", fig5),
        ("fig8", fig8),
        ("fig9", fig9),
        ("table1", table1),
        ("table2", table2),
        ("table3", table3),
        ("table4", table4),
        ("fairness-churn", fairness_churn),
        ("fairness-outage", fairness_outage),
    )
}
EXPERIMENTS.update(
    (
        name,
        Experiment(
            name, _summary(matrix.__doc__), partial(ablations.jobs, name),
            dict, render,
        ),
    )
    for name, (matrix, render) in ablations.ABLATIONS.items()
)

#: The paper's figures and tables, in presentation order — the default
#: campaign selection.
FIGURE_SUITE = (
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig8", "fig9",
    "table1", "table2", "table3", "table4",
)

__all__ = [
    "EXPERIMENTS",
    "FIGURE_SUITE",
    "Experiment",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig8",
    "fig9",
    "table1",
    "table2",
    "table3",
    "table4",
    "ablations",
    "fairness_churn",
    "fairness_outage",
]
