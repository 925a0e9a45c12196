"""Fairness across an AP blackout: occupancy re-convergence after outage.

The harshest membership change a cell can see is not one station
leaving — it is the AP itself going dark: every association drops at
once, queued downlink packets flush back to the pool, an in-flight
frame is cut mid-air, and on recovery the whole population
re-associates in a seeded, jittered stampede.  The paper's fairness
claim has to survive that: once the dust settles, each station's share
of the attributed channel time must return to 1/n_active, and under
TBR each re-associating station receives its initial token grant
exactly once (the ``fairness-outage`` scenario family drives the
re-association through the same lifecycle path as a first join).

The run splits into three phases — *before* the outage, *down* (AP
dark plus the rejoin jitter window), and *after* — and the reduction
probes the after phase in windows of FILLEVENTs for the first in which
every station's share sits within tolerance of fair.  TBR re-converges
within a bounded number of FILLEVENTs; the FIFO baseline re-associates
just as fast but re-converges to the *anomaly* (the slow station's
share balloons), which is exactly the contrast worth pinning.
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
from repro.scenario.spec import ApOutageEvent, ScenarioSpec
from repro.sim import us_from_s

FAMILY = "fairness-outage"
PHASES = ("before", "down", "after")


@dataclass
class OutagePhaseRun:
    """One scheduler's run, reduced to per-phase occupancy shares."""

    scheduler: str
    seed: int
    seconds: float
    #: phase -> station -> share of the phase's attributed airtime.
    shares: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: number of stations associated outside the outage window.
    n_active: int = 0
    #: total airtime attributed during the *down* phase.  The cell is
    #: silent while the AP is dark; what shows up here is the rejoin
    #: stampede in the jitter tail (re-association and the first
    #: post-recovery exchanges).
    down_airtime_us: float = 0.0
    #: FILLEVENTs after recovery until every station's windowed share
    #: is within SHARE_TOLERANCE of 1/n_active (``None`` = never).
    converge_fills: Optional[int] = None


def phases_of(spec: ScenarioSpec) -> Phases:
    """The run cut where the AP goes dark and where the rejoin jitter
    ends, with post-recovery convergence probed through the after
    phase over every station — all read off the spec, so the job
    digest covers them."""
    outage = next(e for e in spec.timeline if isinstance(e, ApOutageEvent))
    down_us = us_from_s(outage.at_s)
    up_us = us_from_s(
        outage.at_s + outage.duration_s + outage.rejoin_jitter_s
    )
    return Phases(
        (down_us, up_us),
        probe_edges(spec, up_us, us_from_s(spec.horizon_s)),
        tuple(s.name for s in spec.stations),
    )


def jobs(seed: int = 1, seconds: float = 9.0) -> List[Job]:
    return family_jobs(FAMILY, seed, seconds, phases_of)


def reduce(results: Mapping[str, ScenarioResult]) -> PhasedResult:
    runs = {}
    for scheduler, (spec, occupancy, converge_fills) in family_phases(
        FAMILY, results, phases_of
    ).items():
        runs[scheduler] = OutagePhaseRun(
            scheduler, spec.seed, spec.seconds,
            shares={
                phase: shares(used) for phase, used in zip(PHASES, occupancy)
            },
            n_active=len(spec.stations),
            down_airtime_us=sum(occupancy[1].values()),  # the "down" phase
            converge_fills=converge_fills,
        )
    return PhasedResult(runs=runs)


def run(seed: int = 1, seconds: float = 9.0) -> PhasedResult:
    return reduce(serial_results(jobs(seed=seed, seconds=seconds)))


def render(result: PhasedResult) -> str:
    blocks: List[str] = []
    for scheduler in SCHEDULERS:
        reduced = result.runs[scheduler]
        fair = fmt_frac(1.0 / reduced.n_active)
        blocks.append(
            render_phase_shares(
                f"Fairness across an AP outage ({scheduler}, seed "
                f"{reduced.seed}, {reduced.seconds:g} s): occupancy "
                "share per phase",
                PHASES,
                reduced.shares,
                [fair, "-", fair],
                "recovery",
                reduced.converge_fills,
            )
        )
    return "\n\n".join(blocks)

