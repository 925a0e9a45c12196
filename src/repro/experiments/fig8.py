"""Figure 8: TBR adds no overhead in same-rate cells.

Two stations at the same rate (1, 2, 5.5 or 11 Mbps), TCP in one
direction, AP with and without TBR.  The paper: "Exp-TBR and Exp-Normal
yield almost identical results, showing that TBR incurs little
overhead."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from repro.campaign.executor import serial_results
from repro.campaign.job import Job
from repro.experiments.common import competing_job, fmt_table
from repro.scenario.runner import ScenarioResult

RATES = (1.0, 2.0, 5.5, 11.0)
DIRECTIONS = ("down", "up")
SCHEDULERS = (("normal", "fifo"), ("tbr", "tbr"))


@dataclass
class Fig8Result:
    #: keyed by (direction, rate) -> {"normal": ..., "tbr": ...}
    runs: Dict[Tuple[str, float], Dict[str, ScenarioResult]] = field(
        default_factory=dict
    )

    def overhead_fraction(self, direction: str, rate: float) -> float:
        """Relative total-throughput change TBR introduces (should ~ 0)."""
        pair = self.runs[(direction, rate)]
        normal = pair["normal"].total_mbps
        if normal <= 0:
            return 0.0
        return pair["tbr"].total_mbps / normal - 1.0


def jobs(seed: int = 1, seconds: float = 12.0) -> List[Job]:
    """One sim per (direction, rate, scheduler)."""
    return [
        competing_job(
            "fig8", (direction, rate, label),
            [rate, rate], direction=direction, scheduler=scheduler,
            seconds=seconds, seed=seed,
        )
        for direction in DIRECTIONS
        for rate in RATES
        for label, scheduler in SCHEDULERS
    ]


def reduce(results: Mapping[Tuple, ScenarioResult]) -> Fig8Result:
    result = Fig8Result()
    for direction in DIRECTIONS:
        for rate in RATES:
            result.runs[(direction, rate)] = {
                label: results[(direction, rate, label)]
                for label, _ in SCHEDULERS
            }
    return result


def run(seed: int = 1, seconds: float = 12.0) -> Fig8Result:
    return reduce(serial_results(jobs(seed=seed, seconds=seconds)))


def render(result: Fig8Result) -> str:
    rows = []
    for (direction, rate), pair in result.runs.items():
        rows.append(
            [
                direction,
                f"{rate:g}vs{rate:g}",
                f"{pair['normal'].total_mbps:.3f}",
                f"{pair['tbr'].total_mbps:.3f}",
                f"{result.overhead_fraction(direction, rate) * 100:+.1f}%",
            ]
        )
    return fmt_table(
        ["direction", "rates", "Exp-Normal", "Exp-TBR", "TBR delta"],
        rows,
        title="Figure 8: same-rate pairs with and without TBR (total Mbps)",
    )
