"""Figure 2: the motivating anomaly.

Two stations upload over TCP.  When both run at 11 Mbps each gets
~2.5 Mbps; replace one with a 1 Mbps station and *both* drop to
~0.7 Mbps while the slow station occupies ~6x more channel time.  The
paper's headline numbers: 11vs11 total 5.08 Mbps, 11vs1 total
1.34 Mbps (less than half the naive 2.93 Mbps average), channel-time
ratio 6.4x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping

from repro.campaign.executor import serial_results
from repro.campaign.job import Job
from repro.experiments.common import (
    competing_job,
    fmt_frac,
    fmt_mbps,
    fmt_table,
)
from repro.scenario.runner import ScenarioResult

PAPER_TOTAL_11V11 = 5.08
PAPER_TOTAL_11V1 = 1.34
PAPER_TOTAL_1V1 = 0.78
PAPER_CHANNEL_TIME_RATIO_11V1 = 6.4


@dataclass
class Fig2Result:
    same_rate: ScenarioResult  # 11 vs 11
    mixed: ScenarioResult  # 1 vs 11

    @property
    def channel_time_ratio(self) -> float:
        """Slow node's occupancy over fast node's, in the mixed case."""
        occ = self.mixed.occupancy
        return occ["n1"] / occ["n2"] if occ["n2"] > 0 else float("inf")

    @property
    def naive_expected_total(self) -> float:
        """Average of the 11vs11 total and the 1vs1-equivalent total,
        what one might naively expect for 1vs11 (paper: 2.93)."""
        return (self.same_rate.total_mbps + PAPER_TOTAL_1V1) / 2.0


def jobs(seed: int = 1, seconds: float = 15.0) -> List[Job]:
    return [
        competing_job(
            "fig2", "same", [11.0, 11.0], direction="up",
            seconds=seconds, seed=seed,
        ),
        competing_job(
            "fig2", "mixed", [1.0, 11.0], direction="up",
            seconds=seconds, seed=seed,
        ),
    ]


def reduce(results: Mapping[str, ScenarioResult]) -> Fig2Result:
    return Fig2Result(same_rate=results["same"], mixed=results["mixed"])


def run(seed: int = 1, seconds: float = 15.0) -> Fig2Result:
    return reduce(serial_results(jobs(seed=seed, seconds=seconds)))


def render(result: Fig2Result) -> str:
    rows = []
    for label, res, paper in (
        ("11 vs 11", result.same_rate, PAPER_TOTAL_11V11),
        ("1 vs 11", result.mixed, PAPER_TOTAL_11V1),
    ):
        thr = res.throughput_mbps
        occ = res.occupancy
        rows.append(
            [
                label,
                fmt_mbps(thr["n1"]),
                fmt_mbps(thr["n2"]),
                fmt_mbps(res.total_mbps),
                f"{paper:.2f}",
                fmt_frac(occ["n1"]),
                fmt_frac(occ["n2"]),
            ]
        )
    table = fmt_table(
        ["case", "thr n1", "thr n2", "total", "paper total", "time n1", "time n2"],
        rows,
        title="Figure 2: TCP uplink throughput and channel occupancy",
    )
    ratio = result.channel_time_ratio
    return (
        f"{table}\n"
        f"channel-time ratio (1 Mbps / 11 Mbps node): {ratio:.1f}x "
        f"(paper {PAPER_CHANNEL_TIME_RATIO_11V1:.1f}x)\n"
        f"naive expected 1vs11 total: {result.naive_expected_total:.2f} Mbps; "
        f"actual {result.mixed.total_mbps:.2f} Mbps"
    )
