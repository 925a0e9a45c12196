"""Figure 9: the headline result — TBR in multi-rate cells.

Two stations (1, 2 or 5.5 Mbps versus 11 Mbps), TCP up or down, AP with
and without TBR, overlaid with the model predictions Eq 6 (RF) and
Eq 12 (TF) evaluated on the paper's measured baselines.

Paper's downlink aggregate improvements: +103 % (1vs11), +35 % (2vs11),
+6 % (5.5vs11); similar uplink.  Exp-Normal tracks Eq 6 and Exp-TBR
tracks Eq 12.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from repro.analysis.model import PAPER_TABLE2_TCP_MBPS, NodeSpec, predict
from repro.campaign.executor import serial_results
from repro.campaign.job import Job
from repro.experiments.common import competing_job, fmt_table
from repro.scenario.runner import ScenarioResult

PAIRS = ((1.0, 11.0), (2.0, 11.0), (5.5, 11.0))
DIRECTIONS = ("down", "up")
SCHEDULERS = (("normal", "fifo"), ("tbr", "tbr"))

#: Paper's approximate aggregate improvement of Exp-TBR over Exp-Normal.
PAPER_IMPROVEMENT = {(1.0, 11.0): 1.03, (2.0, 11.0): 0.35, (5.5, 11.0): 0.06}


def model_predictions(pair: Tuple[float, float]) -> Dict[str, Dict[str, float]]:
    """Eq 6 and Eq 12 for the pair, using the paper's Table 2 betas."""
    nodes = [
        NodeSpec("n1", pair[0], beta_mbps=PAPER_TABLE2_TCP_MBPS[pair[0]]),
        NodeSpec("n2", pair[1], beta_mbps=PAPER_TABLE2_TCP_MBPS[pair[1]]),
    ]
    model = predict(nodes)
    return {"eq6": model.rf_per_node, "eq12": model.tf_per_node}


@dataclass
class Fig9Result:
    #: keyed by (direction, pair) -> {"normal", "tbr"} results.
    runs: Dict[Tuple[str, Tuple[float, float]], Dict[str, ScenarioResult]] = field(
        default_factory=dict
    )

    def improvement(self, direction: str, pair: Tuple[float, float]) -> float:
        entry = self.runs[(direction, pair)]
        normal = entry["normal"].total_mbps
        if normal <= 0:
            return 0.0
        return entry["tbr"].total_mbps / normal - 1.0


def jobs(seed: int = 1, seconds: float = 15.0) -> List[Job]:
    """One sim per (direction, rate pair, scheduler)."""
    return [
        competing_job(
            "fig9", (direction, pair, label),
            list(pair), direction=direction, scheduler=scheduler,
            seconds=seconds, seed=seed,
        )
        for direction in DIRECTIONS
        for pair in PAIRS
        for label, scheduler in SCHEDULERS
    ]


def reduce(results: Mapping[Tuple, ScenarioResult]) -> Fig9Result:
    result = Fig9Result()
    for direction in DIRECTIONS:
        for pair in PAIRS:
            result.runs[(direction, pair)] = {
                label: results[(direction, pair, label)]
                for label, _ in SCHEDULERS
            }
    return result


def run(seed: int = 1, seconds: float = 15.0) -> Fig9Result:
    return reduce(serial_results(jobs(seed=seed, seconds=seconds)))


def render(result: Fig9Result) -> str:
    rows = []
    for (direction, pair), entry in result.runs.items():
        models = model_predictions(pair)
        eq6 = sum(models["eq6"].values())
        eq12 = sum(models["eq12"].values())
        gain = result.improvement(direction, pair)
        rows.append(
            [
                direction,
                f"{pair[0]:g}vs{pair[1]:g}",
                f"{eq6:.2f}",
                f"{entry['normal'].total_mbps:.2f}",
                f"{entry['tbr'].total_mbps:.2f}",
                f"{eq12:.2f}",
                f"{gain * 100:+.0f}%",
                f"+{PAPER_IMPROVEMENT[pair] * 100:.0f}%",
            ]
        )
    return fmt_table(
        [
            "dir",
            "rates",
            "Eq6",
            "Exp-Normal",
            "Exp-TBR",
            "Eq12",
            "TBR gain",
            "paper gain",
        ],
        rows,
        title="Figure 9: multi-rate pairs, model vs simulation (total Mbps)",
    )
