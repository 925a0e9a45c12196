"""Table 3: four nodes (1, 2, 11, 11 Mbps) under RF and TF.

The paper computes this table analytically from the Table 2 baselines
(RF: every node 0.436 Mbps, total 1.742; TF: 0.202 / 0.373 / 1.30 /
1.30, total 3.175 — an 82 % aggregate improvement, and the 1 Mbps
node's TF throughput equals what it would get in an all-1-Mbps cell).
We reproduce both the analytic table and a live 4-station simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping

from repro.analysis.baseline import PAPER_TABLE2_TCP_MBPS
from repro.analysis.model import FairnessPrediction, NodeSpec, predict
from repro.campaign.executor import serial_results
from repro.campaign.job import Job
from repro.experiments.common import competing_job, fmt_table
from repro.scenario.runner import ScenarioResult

NODE_RATES = {"n1": 1.0, "n2": 2.0, "n3": 11.0, "n4": 11.0}

PAPER_RF = {"n1": 0.436, "n2": 0.436, "n3": 0.436, "n4": 0.436}
PAPER_TF = {"n1": 0.202, "n2": 0.373, "n3": 1.30, "n4": 1.30}
PAPER_RF_TOTAL = 1.742
PAPER_TF_TOTAL = 3.175


@dataclass
class Table3Result:
    prediction: FairnessPrediction
    simulated_rf: ScenarioResult
    simulated_tf: ScenarioResult


def jobs(seed: int = 1, seconds: float = 20.0) -> List[Job]:
    return [
        competing_job(
            "table3", notion, NODE_RATES, direction="up",
            scheduler=scheduler, seconds=seconds, seed=seed,
        )
        for notion, scheduler in (("rf", "fifo"), ("tf", "tbr"))
    ]


def reduce(results: Mapping[str, ScenarioResult]) -> Table3Result:
    nodes = [
        NodeSpec(name, rate, beta_mbps=PAPER_TABLE2_TCP_MBPS[rate])
        for name, rate in NODE_RATES.items()
    ]
    return Table3Result(predict(nodes), results["rf"], results["tf"])


def run(seed: int = 1, seconds: float = 20.0) -> Table3Result:
    return reduce(serial_results(jobs(seed=seed, seconds=seconds)))


def render(result: Table3Result) -> str:
    rows = []
    pred = result.prediction
    for name, rate in NODE_RATES.items():
        rows.append(
            [
                f"{name} ({rate:g})",
                f"{pred.rf_per_node[name]:.3f}",
                f"{PAPER_RF[name]:.3f}",
                f"{result.simulated_rf.throughput_mbps[name]:.3f}",
                f"{pred.tf_per_node[name]:.3f}",
                f"{PAPER_TF[name]:.3f}",
                f"{result.simulated_tf.throughput_mbps[name]:.3f}",
            ]
        )
    rows.append(
        [
            "total",
            f"{pred.rf_total:.3f}",
            f"{PAPER_RF_TOTAL:.3f}",
            f"{result.simulated_rf.total_mbps:.3f}",
            f"{pred.tf_total:.3f}",
            f"{PAPER_TF_TOTAL:.3f}",
            f"{result.simulated_tf.total_mbps:.3f}",
        ]
    )
    table = fmt_table(
        [
            "node",
            "RF model",
            "RF paper",
            "RF sim",
            "TF model",
            "TF paper",
            "TF sim",
        ],
        rows,
        title="Table 3: four competing nodes (1, 2, 11, 11 Mbps), TCP uplink",
    )
    return (
        f"{table}\n"
        f"TF aggregate improvement: model {pred.improvement * 100:.0f}%, "
        f"simulated "
        f"{(result.simulated_tf.total_mbps / result.simulated_rf.total_mbps - 1) * 100:.0f}% "
        f"(paper 82%)"
    )
