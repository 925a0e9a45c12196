"""Wires the experiment modules' ``jobs()``/``reduce()`` pairs into the
campaign CLI.

Imported lazily (this module pulls in every experiment) — the rest of
``repro.campaign`` stays importable from ``repro.experiments.common``
without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional

from repro.campaign.job import Job


@dataclass(frozen=True)
class CampaignExperiment:
    """One selectable experiment: job factory + reducer + renderer."""

    name: str
    jobs: Callable[..., List[Job]]
    reduce: Callable[[Mapping[Hashable, Any]], Any]
    render: Callable[[Any], str]
    #: keyword the job factory uses for its simulated duration
    #: (``seconds`` for most, ``duration_s`` for fig5, ``max_seconds``
    #: for table1) — how the CLI's ``--seconds`` override is applied.
    duration_kw: str = "seconds"

    def build_jobs(
        self, *, seed: int = 1, seconds: Optional[float] = None
    ) -> List[Job]:
        kwargs: Dict[str, Any] = {"seed": seed}
        if seconds is not None:
            kwargs[self.duration_kw] = seconds
        return self.jobs(**kwargs)


#: The paper's figures and tables, in presentation order — the default
#: campaign selection.
FIGURE_SUITE = (
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig8", "fig9",
    "table1", "table2", "table3", "table4",
)

_DURATION_KW = {"fig5": "duration_s", "table1": "max_seconds"}


def campaign_registry() -> Dict[str, CampaignExperiment]:
    """Name -> :class:`CampaignExperiment` for every figure, table and
    ablation (ablations are prefixed ``abl-``)."""
    from repro.experiments import REGISTRY, ablations

    registry: Dict[str, CampaignExperiment] = {}
    for name, module in REGISTRY.items():
        registry[name] = CampaignExperiment(
            name=name,
            jobs=module.jobs,
            reduce=module.reduce,
            render=module.render,
            duration_kw=_DURATION_KW.get(name, "seconds"),
        )
    for name, (jobs_fn, reduce_fn, render_fn) in ablations.CAMPAIGNS.items():
        registry[name] = CampaignExperiment(
            name=name, jobs=jobs_fn, reduce=reduce_fn, render=render_fn
        )
    return registry
