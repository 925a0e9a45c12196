"""Table 4: TBR under unequal demand (the rate-adjustment check).

Two stations at 11 Mbps; n2's application is paced at 2.1 Mbps while
n1 sends as fast as TCP allows.  DCF's expected behaviour is to give n2
its 2.1 Mbps and n1 the rest; the paper shows TBR matches this
(Exp-Normal 2.943/2.128, Exp-TBR 2.954/2.119 — "no significant
difference"), demonstrating that the token-rate adjustment keeps the
channel fully utilized instead of idling n1 at a hard 50 % cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping

from repro.campaign.executor import serial_results
from repro.campaign.job import Job
from repro.experiments.common import fmt_table
from repro.scenario.runner import ScenarioResult, scenario_job
from repro.scenario.spec import FlowSpec, ScenarioSpec, StationSpec

PAPER = {
    "normal": {"n1": 2.9434, "n2": 2.1276, "total": 5.071},
    "tbr": {"n1": 2.9542, "n2": 2.1193, "total": 5.061},
}

PACED_MBPS = 2.1


@dataclass
class Table4Result:
    throughput: Dict[str, Dict[str, float]]

    def total(self, which: str) -> float:
        return sum(self.throughput[which].values())


def pair_spec(scheduler: str, seed: int, seconds: float) -> ScenarioSpec:
    """The paced-vs-greedy pair under one AP scheduler."""
    return ScenarioSpec(
        name=f"table4/{scheduler}",
        scheduler=scheduler,
        stations=(StationSpec("n1"), StationSpec("n2")),
        flows=(
            FlowSpec("n1"),
            FlowSpec("n2", app="paced", rate_mbps=PACED_MBPS),
        ),
        seconds=seconds,
        warmup_seconds=3.0,
        seed=seed,
    )


def jobs(seed: int = 1, seconds: float = 15.0) -> List[Job]:
    return [
        scenario_job(
            pair_spec(scheduler, seed, seconds),
            experiment="table4", key=label,
        )
        for label, scheduler in (("normal", "fifo"), ("tbr", "tbr"))
    ]


def reduce(results: Mapping[str, ScenarioResult]) -> Table4Result:
    return Table4Result(
        throughput={
            label: results[label].throughput_mbps
            for label in ("normal", "tbr")
        }
    )


def run(seed: int = 1, seconds: float = 15.0) -> Table4Result:
    return reduce(serial_results(jobs(seed=seed, seconds=seconds)))


def render(result: Table4Result) -> str:
    rows = []
    for which in ("normal", "tbr"):
        thr = result.throughput[which]
        paper = PAPER[which]
        rows.append(
            [
                which,
                f"{thr['n1']:.3f}",
                f"{paper['n1']:.3f}",
                f"{thr['n2']:.3f}",
                f"{paper['n2']:.3f}",
                f"{sum(thr.values()):.3f}",
                f"{paper['total']:.3f}",
            ]
        )
    return fmt_table(
        ["config", "n1", "n1 paper", "n2 (paced)", "n2 paper", "total", "total paper"],
        rows,
        title=f"Table 4: n2 app-limited to {PACED_MBPS} Mbps, both at 11 Mbps",
    )
