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
    family_jobs,
    fmt_frac,
    phased_occupancy,
    render_phase_shares,
    shares,
)
from repro.scenario.spec import LeaveEvent, RejoinEvent, ScenarioSpec
from repro.sim import us_from_s

FAMILY = "fairness-churn"
PHASES = ("before", "away", "after")

#: Executor address for :func:`execute_churn` (what workers import).
CHURN_EXECUTOR = "repro.experiments.fairness_churn:execute_churn"


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


@dataclass
class FairnessChurnResult:
    runs: Dict[str, ChurnPhaseRun]  # scheduler -> reduced run

    @property
    def tbr(self) -> ChurnPhaseRun:
        return self.runs["tbr"]


def execute_churn(params: Dict[str, object]) -> ChurnPhaseRun:
    """Job executor: ``params`` carries the (thawed) fairness-churn spec.

    Everything — topology, phase boundaries, scheduler, seed — is read
    off the spec, so the campaign cache digest covers the full run
    configuration (a family-default change in the registry reaches the
    digest through the spec content and invalidates stale entries).
    """
    spec = params["spec"]
    if not isinstance(spec, ScenarioSpec):
        raise TypeError(
            f"fairness-churn job params must carry a ScenarioSpec, "
            f"got {type(spec).__name__}"
        )
    leave_event = next(
        e for e in spec.timeline if isinstance(e, LeaveEvent)
    )
    leave_s, leaver = leave_event.at_s, leave_event.station
    rejoin_s = next(
        e.at_s for e in spec.timeline if isinstance(e, RejoinEvent)
    )
    n_peers = len(spec.stations) - 1  # everyone but the leaver
    if n_peers < 1:
        raise ValueError(
            "fairness-churn needs at least one peer besides the leaver "
            "(the away phase would have no stations to share the channel)"
        )

    leave_us, rejoin_us = us_from_s(leave_s), us_from_s(rejoin_s)
    # Post-leave convergence is probed through the away phase, over the
    # stations that stay.
    occupancy, converge_fills = phased_occupancy(
        spec,
        (leave_us, rejoin_us),
        (leave_us, rejoin_us),
        [s.name for s in spec.stations if s.name != leaver],
    )
    return ChurnPhaseRun(
        scheduler=spec.scheduler,
        seed=spec.seed,
        seconds=spec.seconds,
        shares={
            phase: shares(used) for phase, used in zip(PHASES, occupancy)
        },
        n_active={
            "before": n_peers + 1, "away": n_peers, "after": n_peers + 1
        },
        converge_fills=converge_fills,
    )


def jobs(seed: int = 1, seconds: float = 9.0) -> List[Job]:
    return family_jobs(FAMILY, CHURN_EXECUTOR, seed, seconds)


def reduce(results: Mapping[str, ChurnPhaseRun]) -> FairnessChurnResult:
    return FairnessChurnResult(runs={s: results[s] for s in SCHEDULERS})


def run(seed: int = 1, seconds: float = 9.0) -> FairnessChurnResult:
    return reduce(serial_results(jobs(seed=seed, seconds=seconds)))


def render(result: FairnessChurnResult) -> str:
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
