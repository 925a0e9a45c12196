"""Table 2: baseline throughputs β(d, 1500, 2).

Two same-rate stations upload over TCP; the aggregate is the baseline
throughput for that rate.  The paper measures 5.189 / 3.327 / 1.493 /
0.806 Mbps for 11 / 5.5 / 2 / 1; we report simulated values alongside
the analytic timing model's prediction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping

from repro.analysis.baseline import PAPER_TABLE2_TCP_MBPS, analytic_baseline_mbps
from repro.campaign.executor import serial_results
from repro.campaign.job import Job
from repro.experiments.common import competing_job, fmt_table
from repro.scenario.runner import ScenarioResult

RATES = (1.0, 2.0, 5.5, 11.0)


@dataclass
class Table2Result:
    measured_mbps: Dict[float, float] = field(default_factory=dict)
    analytic_mbps: Dict[float, float] = field(default_factory=dict)


def jobs(seed: int = 1, seconds: float = 15.0) -> List[Job]:
    return [
        competing_job(
            "table2", rate, [rate, rate], direction="up",
            seconds=seconds, seed=seed,
        )
        for rate in RATES
    ]


def reduce(results: Mapping[float, ScenarioResult]) -> Table2Result:
    result = Table2Result()
    for rate in RATES:
        result.measured_mbps[rate] = results[rate].total_mbps
        result.analytic_mbps[rate] = analytic_baseline_mbps(rate)
    return result


def run(seed: int = 1, seconds: float = 15.0) -> Table2Result:
    return reduce(serial_results(jobs(seed=seed, seconds=seconds)))


def render(result: Table2Result) -> str:
    rows = []
    for rate in RATES:
        measured = result.measured_mbps[rate]
        paper = PAPER_TABLE2_TCP_MBPS[rate]
        rows.append(
            [
                f"{rate:g}",
                f"{measured:.3f}",
                f"{result.analytic_mbps[rate]:.3f}",
                f"{paper:.3f}",
                f"{measured / paper:.2f}x",
            ]
        )
    return fmt_table(
        ["rate (Mbps)", "simulated", "analytic", "paper", "sim/paper"],
        rows,
        title="Table 2: baseline throughput beta(d, 1500B, 2 nodes), TCP",
    )
