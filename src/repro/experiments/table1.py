"""Table 1: fairness/efficiency measures under RF vs TF.

Task-model experiment: a 1 Mbps and an 11 Mbps station each upload an
equal-sized file; we measure per-criterion outcomes under RF (plain
DCF+FIFO) and TF (TBR) and check the paper's qualitative table:

====================  ===========  ==========
criterion             RF           TF
====================  ===========  ==========
|thr_i - thr_j|       better (~0)  worse
|time_i - time_j|     worse        better (~0)
FinalTaskTime         same         same
AvgTaskTime           worse        better
AggrThruput (fluid)   worse        better
====================  ===========  ==========
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping

from repro.analysis.efficiency import Task, task_model_metrics
from repro.campaign.executor import serial_results
from repro.campaign.job import Job, make_job
from repro.analysis.model import PAPER_TABLE2_TCP_MBPS, NodeSpec
from repro.experiments.common import fmt_table
from repro.node.cell import Cell
from repro.sim import us_from_s

TASK_BYTES = 1_500_000
RATE_SLOW = 1.0
RATE_FAST = 11.0


@dataclass
class NotionOutcome:
    """Measured quantities for one fairness notion."""

    completion_s: Dict[str, float] = field(default_factory=dict)
    throughput_mbps: Dict[str, float] = field(default_factory=dict)
    occupancy: Dict[str, float] = field(default_factory=dict)

    @property
    def avg_task_time_s(self) -> float:
        times = list(self.completion_s.values())
        return sum(times) / len(times) if times else 0.0

    @property
    def final_task_time_s(self) -> float:
        return max(self.completion_s.values()) if self.completion_s else 0.0

    @property
    def throughput_gap(self) -> float:
        thr = list(self.throughput_mbps.values())
        return abs(thr[0] - thr[1])

    @property
    def time_gap(self) -> float:
        occ = list(self.occupancy.values())
        return abs(occ[0] - occ[1])


@dataclass
class Table1Result:
    rf: NotionOutcome
    tf: NotionOutcome
    analytic: Dict[str, object] = field(default_factory=dict)


TASKS_EXECUTOR = "repro.experiments.table1:execute_tasks"


def execute_tasks(params: Dict) -> NotionOutcome:
    """Job executor: the task-model run for one fairness notion."""
    max_seconds = params["max_seconds"]
    # Hand-built: the spec language measures a fixed window, and this
    # run ends when both tasks complete.
    cell = Cell(seed=params["seed"], scheduler=params["scheduler"])
    slow = cell.add_station("slow", rate_mbps=RATE_SLOW)
    fast = cell.add_station("fast", rate_mbps=RATE_FAST)
    flows = [
        cell.tcp_flow(slow, direction="up", app="task", task_bytes=TASK_BYTES),
        cell.tcp_flow(fast, direction="up", app="task", task_bytes=TASK_BYTES),
    ]
    # Run until both tasks complete (chunked so we can snapshot the
    # occupancy shares while both nodes are still competing — the
    # paper's fairness measure applies to the contention interval).
    deadline = us_from_s(max_seconds)
    contention_shares = None
    while cell.sim.now < deadline and not all(f.stats.completed for f in flows):
        cell.sim.run(until=min(deadline, cell.sim.now + us_from_s(0.1)))
        if contention_shares is None and any(f.stats.completed for f in flows):
            contention_shares = cell.occupancy_shares()
    outcome = NotionOutcome()
    for flow in flows:
        name = flow.station.address
        done = flow.stats.completion_time_us()
        outcome.completion_s[name] = (
            done / 1e6 if done is not None else max_seconds
        )
        outcome.throughput_mbps[name] = (
            TASK_BYTES * 8.0 / us_from_s(outcome.completion_s[name])
        )
    outcome.occupancy = (
        contention_shares if contention_shares is not None
        else cell.occupancy_shares()
    )
    return outcome


def jobs(seed: int = 1, seconds: float = 120.0) -> List[Job]:
    return [
        make_job(
            "table1", notion, TASKS_EXECUTOR,
            {"scheduler": scheduler, "seed": seed, "max_seconds": seconds},
        )
        for notion, scheduler in (("rf", "fifo"), ("tf", "tbr"))
    ]


def reduce(results: Mapping[str, NotionOutcome]) -> Table1Result:
    nodes = [
        NodeSpec("slow", RATE_SLOW, beta_mbps=PAPER_TABLE2_TCP_MBPS[RATE_SLOW]),
        NodeSpec("fast", RATE_FAST, beta_mbps=PAPER_TABLE2_TCP_MBPS[RATE_FAST]),
    ]
    tasks = [Task(n, TASK_BYTES * 8.0) for n in nodes]
    analytic = task_model_metrics(tasks)
    return Table1Result(rf=results["rf"], tf=results["tf"], analytic=analytic)


def run(seed: int = 1, seconds: float = 120.0) -> Table1Result:
    return reduce(serial_results(jobs(seed=seed, seconds=seconds)))


def render(result: Table1Result) -> str:
    rf, tf = result.rf, result.tf
    rows = [
        [
            "|thr_i - thr_j| (Mbps)",
            f"{rf.throughput_gap:.3f}",
            f"{tf.throughput_gap:.3f}",
            "RF better",
        ],
        [
            "|time_i - time_j| (share)",
            f"{rf.time_gap:.3f}",
            f"{tf.time_gap:.3f}",
            "TF better",
        ],
        [
            "FinalTaskTime (s)",
            f"{rf.final_task_time_s:.1f}",
            f"{tf.final_task_time_s:.1f}",
            "same",
        ],
        [
            "AvgTaskTime (s)",
            f"{rf.avg_task_time_s:.1f}",
            f"{tf.avg_task_time_s:.1f}",
            "TF better",
        ],
    ]
    table = fmt_table(
        ["measure", "RF (DCF+FIFO)", "TF (TBR)", "paper says"],
        rows,
        title=(
            f"Table 1: task model, equal {TASK_BYTES / 1e6:.1f} MB uploads at "
            f"{RATE_SLOW:g} and {RATE_FAST:g} Mbps"
        ),
    )
    analytic_rf = result.analytic["rf"]
    analytic_tf = result.analytic["tf"]
    return (
        f"{table}\n"
        f"analytic (fluid) AvgTaskTime: RF {analytic_rf.avg_task_time_us / 1e6:.1f}s, "
        f"TF {analytic_tf.avg_task_time_us / 1e6:.1f}s; "
        f"FinalTaskTime: RF {analytic_rf.final_task_time_us / 1e6:.1f}s, "
        f"TF {analytic_tf.final_task_time_us / 1e6:.1f}s"
    )
