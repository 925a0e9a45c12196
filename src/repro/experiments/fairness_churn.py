"""Fairness under churn: occupancy shares across a true leave/rejoin.

The paper's Figure-8-style claim is that each competing station's
channel-time share converges to its fair share 1/n — but n is the
number of *currently associated* stations.  This experiment exercises
exactly that regime: the ``fairness-churn`` scenario family runs
``n_peers`` fast TCP uploaders plus one slow station that truly
disassociates a third of the way into the measurement window and
re-associates at two thirds.  The run splits into three phases
(*before*, *away*, *after*), and within each phase every associated
station's share of the attributed channel time should sit at
1/n_active — 1/(n_peers+1) while the leaver is present, 1/n_peers
while it is away.

Under TBR the shares re-converge after each membership change within a
bounded number of FILLEVENTs (the disassociation path redistributes
the leaver's token rate instead of stranding it at ``min_rate``); the
FIFO baseline shows the anomaly instead — the slow station hogs the
channel whenever it is present.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.campaign.executor import serial_results
from repro.campaign.job import Job
from repro.experiments.common import (
    SCHEDULERS,
    Phases,
    PhasedResult,
    family_jobs,
    family_phases,
    fmt_frac,
    probe_edges,
    render_phase_shares,
    shares,
)
from repro.scenario.runner import ScenarioResult
from repro.scenario.spec import LeaveEvent, RejoinEvent, ScenarioSpec
from repro.sim import us_from_s

FAMILY = "fairness-churn"
PHASES = ("before", "away", "after")


@dataclass
class ChurnPhaseRun:
    """One scheduler's run, reduced to per-phase occupancy shares."""

    scheduler: str
    seed: int
    seconds: float
    #: phase -> station -> share of the phase's attributed airtime.
    shares: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: phase -> number of associated stations during the phase.
    n_active: Dict[str, int] = field(default_factory=dict)
    #: FILLEVENTs after the leave until every remaining station's
    #: windowed share is within SHARE_TOLERANCE of 1/n_active (``None``
    #: when the away phase never converges).  Counted in FILLEVENT
    #: units for every scheduler so the columns compare.
    converge_fills: Optional[int] = None


def phases_of(spec: ScenarioSpec) -> Phases:
    """The run cut at the leave and the rejoin, with post-leave
    convergence probed through the away phase over the stations that
    stay — all read off the spec, so the job digest covers them."""
    leave = next(e for e in spec.timeline if isinstance(e, LeaveEvent))
    rejoin_s = next(
        e.at_s for e in spec.timeline if isinstance(e, RejoinEvent)
    )
    stay = tuple(s.name for s in spec.stations if s.name != leave.station)
    cuts_us = (us_from_s(leave.at_s), us_from_s(rejoin_s))
    return Phases(cuts_us, probe_edges(spec, *cuts_us), stay)


def jobs(seed: int = 1, seconds: float = 9.0) -> List[Job]:
    return family_jobs(FAMILY, seed, seconds, phases_of)


def reduce(results: Mapping[str, ScenarioResult]) -> PhasedResult:
    runs = {}
    for scheduler, (spec, occupancy, converge_fills) in family_phases(
        FAMILY, results, phases_of
    ).items():
        n_peers = len(spec.stations) - 1  # everyone but the leaver
        runs[scheduler] = ChurnPhaseRun(
            scheduler, spec.seed, spec.seconds,
            shares={
                phase: shares(used) for phase, used in zip(PHASES, occupancy)
            },
            n_active={
                "before": n_peers + 1, "away": n_peers, "after": n_peers + 1
            },
            converge_fills=converge_fills,
        )
    return PhasedResult(runs=runs)


def run(seed: int = 1, seconds: float = 9.0) -> PhasedResult:
    return reduce(serial_results(jobs(seed=seed, seconds=seconds)))


def render(result: PhasedResult) -> str:
    blocks: List[str] = []
    for scheduler in SCHEDULERS:
        reduced = result.runs[scheduler]
        blocks.append(
            render_phase_shares(
                f"Fairness under churn ({scheduler}, seed {reduced.seed}, "
                f"{reduced.seconds:g} s in equal thirds): occupancy share "
                "per phase",
                PHASES,
                reduced.shares,
                [fmt_frac(1.0 / reduced.n_active[p]) for p in PHASES],
                "leave",
                reduced.converge_fills,
            )
        )
    return "\n\n".join(blocks)
