"""Figure 3: throughput and channel time under RF vs TF.

Three rate combinations (11vs11, 1vs11, 1vs1), two fairness notions:
RF = plain DCF + FIFO AP (throughput-based), TF = TBR (time-based).
The paper's claims:

* same-rate cases are identical under both notions;
* in 1vs11, RF equalizes throughput (and the slow node hogs the
  channel) while TF equalizes channel time (n2 gets ~β(11)/2, n1 gets
  ~β(1)/2 — the baseline property);
* TF's 1vs11 aggregate is roughly double RF's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from repro.campaign.executor import serial_results
from repro.campaign.job import Job
from repro.experiments.common import (
    competing_job,
    fmt_frac,
    fmt_mbps,
    fmt_table,
)
from repro.scenario.runner import ScenarioResult

COMBOS: List[Tuple[float, float]] = [(11.0, 11.0), (1.0, 11.0), (1.0, 1.0)]

NOTIONS = (("rf", "fifo"), ("tf", "tbr"))

#: Paper Figure 3(a) approximate bar values (Mbps): per combo, per
#: notion, (n1, n2).
PAPER_THROUGHPUT = {
    (11.0, 11.0): {"rf": (2.54, 2.54), "tf": (2.54, 2.54)},
    (1.0, 11.0): {"rf": (0.67, 0.67), "tf": (0.40, 2.52)},
    (1.0, 1.0): {"rf": (0.39, 0.39), "tf": (0.39, 0.39)},
}


@dataclass
class Fig3Result:
    cases: Dict[Tuple[float, float], Dict[str, ScenarioResult]] = field(
        default_factory=dict
    )


def jobs(seed: int = 1, seconds: float = 15.0) -> List[Job]:
    return [
        competing_job(
            "fig3", (combo, notion),
            list(combo), direction="up", scheduler=scheduler,
            seconds=seconds, seed=seed,
        )
        for combo in COMBOS
        for notion, scheduler in NOTIONS
    ]


def reduce(results: Mapping[Tuple, ScenarioResult]) -> Fig3Result:
    result = Fig3Result()
    for combo in COMBOS:
        result.cases[combo] = {
            notion: results[(combo, notion)] for notion, _ in NOTIONS
        }
    return result


def run(seed: int = 1, seconds: float = 15.0) -> Fig3Result:
    return reduce(serial_results(jobs(seed=seed, seconds=seconds)))


def render(result: Fig3Result) -> str:
    thr_rows = []
    occ_rows = []
    for combo, runs in result.cases.items():
        label = f"{combo[0]:g}vs{combo[1]:g}"
        for notion in ("rf", "tf"):
            res = runs[notion]
            paper = PAPER_THROUGHPUT[combo][notion]
            thr_rows.append(
                [
                    label,
                    notion.upper(),
                    fmt_mbps(res.throughput_mbps["n1"]),
                    fmt_mbps(res.throughput_mbps["n2"]),
                    fmt_mbps(res.total_mbps),
                    f"({paper[0]:.2f}, {paper[1]:.2f})",
                ]
            )
            occ_rows.append(
                [
                    label,
                    notion.upper(),
                    fmt_frac(res.occupancy["n1"]),
                    fmt_frac(res.occupancy["n2"]),
                ]
            )
    out = fmt_table(
        ["combo", "notion", "thr n1", "thr n2", "total", "paper (n1, n2)"],
        thr_rows,
        title="Figure 3(a): achieved TCP throughput",
    )
    out += "\n\n"
    out += fmt_table(
        ["combo", "notion", "time n1", "time n2"],
        occ_rows,
        title="Figure 3(b): channel occupancy fraction",
    )
    return out
