"""Figure 5: busy intervals are rarely single-user.

A day of synthetic residence-hall traffic at one busy AP (the
Whittemore capture is not redistributable) analyzed with the paper's
statistic: for each 1-second interval whose total throughput exceeds
4 Mbps, the byte share of that interval's heaviest user.

Paper's reading: the heaviest user carries the majority of bytes on
average, yet "the heaviest user alone rarely saturated the channel" —
in most busy seconds other users also moved significant data.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Mapping

from repro.campaign.executor import serial_results
from repro.campaign.job import Job, make_job
from repro.experiments.common import fmt_table
from repro.traces.analyze import BusyInterval, busy_intervals
from repro.traces.synthetic import DormTraceConfig, generate_dorm_trace


@dataclass
class Fig5Result:
    intervals: List[BusyInterval] = field(default_factory=list)

    @property
    def fractions(self) -> List[float]:
        return [i.heaviest_fraction for i in self.intervals]

    @property
    def mean_heaviest_fraction(self) -> float:
        return statistics.mean(self.fractions) if self.intervals else 0.0

    @property
    def solo_fraction(self) -> float:
        """Share of busy intervals fully carried by one user."""
        if not self.intervals:
            return 0.0
        solo = sum(1 for f in self.fractions if f > 0.999)
        return solo / len(self.intervals)

    @property
    def multi_user_fraction(self) -> float:
        if not self.intervals:
            return 0.0
        multi = sum(1 for i in self.intervals if i.active_stations > 1)
        return multi / len(self.intervals)


DORM_EXECUTOR = "repro.experiments.fig5:execute_dorm"


def execute_dorm(params: Dict) -> List[BusyInterval]:
    """Job executor: a day of dorm traffic reduced to busy intervals."""
    config = DormTraceConfig(duration_s=params["duration_s"])
    records = generate_dorm_trace(config, seed=params["seed"])
    return busy_intervals(records, threshold_mbps=params["threshold_mbps"])


def jobs(seed: int = 1, seconds: float = 24.0 * 3600.0) -> List[Job]:
    return [
        make_job(
            "fig5", "dorm", DORM_EXECUTOR,
            {"duration_s": seconds, "threshold_mbps": 4.0, "seed": seed},
        )
    ]


def reduce(results: Mapping[str, List[BusyInterval]]) -> Fig5Result:
    return Fig5Result(intervals=results["dorm"])


def run(seed: int = 1, seconds: float = 24.0 * 3600.0) -> Fig5Result:
    return reduce(serial_results(jobs(seed=seed, seconds=seconds)))


def render(result: Fig5Result) -> str:
    fracs = result.fractions
    buckets = [(0.0, 0.4), (0.4, 0.6), (0.6, 0.8), (0.8, 1.0), (1.0, 1.01)]
    rows = []
    for lo, hi in buckets:
        count = sum(1 for f in fracs if lo <= f < hi)
        label = "= 100%" if lo >= 1.0 else f"{lo * 100:.0f}-{hi * 100:.0f}%"
        pct = count / len(fracs) * 100 if fracs else 0.0
        rows.append([label, str(count), f"{pct:.1f}%"])
    table = fmt_table(
        ["heaviest-user share", "busy intervals", "fraction"],
        rows,
        title="Figure 5: heaviest user's share of busy 1-second intervals",
    )
    return (
        f"{table}\n"
        f"busy intervals: {len(result.intervals)}; "
        f"mean heaviest share {result.mean_heaviest_fraction * 100:.0f}% "
        f"(majority, as in the paper); "
        f"solo-saturated {result.solo_fraction * 100:.1f}% (rare); "
        f"multi-user {result.multi_user_fraction * 100:.0f}%"
    )
