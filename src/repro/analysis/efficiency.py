"""Fluid- and task-model efficiency analysis (paper Section 2.1, Table 1).

The *fluid model* has infinite flows; efficiency is the aggregate
sustained throughput (Eq 7 vs Eq 13, see :mod:`repro.analysis.model`).

The *task model* has one finite transfer per node; efficiency is the
average and final task completion times.  Both fairness notions are
work-conserving, so as tasks finish the remaining nodes speed up: we
integrate the piecewise-constant fluid rates between completions.

Key analytic facts the paper states (and our tests verify):

* FinalTaskTime is identical under RF and TF for equal task mixes
  (work conservation);
* AvgTaskTime under TF is <= AvgTaskTime under RF (fast nodes finish
  early, slow nodes finish no later than they would anyway);
* under RF with equal task sizes every node finishes at the same time,
  so AvgTaskTime == FinalTaskTime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

from repro.analysis.model import NodeSpec, predict


@dataclass(frozen=True)
class Task:
    """A finite transfer bound to a node."""

    node: NodeSpec
    size_bits: float

    def __post_init__(self) -> None:
        if self.size_bits <= 0:
            raise ValueError("task size must be positive")


@dataclass
class TaskModelResult:
    """Completion times (in the same unit as bits/Mbps -> microseconds)."""

    completion_us: Dict[str, float] = field(default_factory=dict)

    @property
    def avg_task_time_us(self) -> float:
        times = list(self.completion_us.values())
        return sum(times) / len(times) if times else 0.0

    @property
    def final_task_time_us(self) -> float:
        return max(self.completion_us.values()) if self.completion_us else 0.0


def fluid_completion_times(
    tasks: Sequence[Task], notion: str, transport: str = "tcp"
) -> TaskModelResult:
    """Integrate the fluid model until every task completes.

    Rates are re-evaluated through :func:`predict` whenever the active
    set shrinks, so a node without ``beta_mbps`` also has its analytic
    β re-evaluated for the smaller set (its contention gap term grows as
    contenders finish).  Time unit: microseconds (bits / Mbps = µs).
    """
    if notion not in ("rf", "tf"):
        raise ValueError(f"unknown fairness notion {notion!r} (rf/tf)")
    names = [t.node.name for t in tasks]
    if len(set(names)) != len(names):
        raise ValueError("duplicate node names in task list")
    remaining: Dict[str, float] = {t.node.name: t.size_bits for t in tasks}
    node_of: Dict[str, NodeSpec] = {t.node.name: t.node for t in tasks}
    result = TaskModelResult()
    now = 0.0

    while remaining:
        prediction = predict([node_of[name] for name in remaining], transport)
        if notion == "rf":
            rates = prediction.rf_per_node
        else:
            rates = prediction.tf_per_node
        # Time until the next completion at current rates.
        horizons = {
            name: remaining[name] / rates[name]
            for name in remaining
            if rates[name] > 0
        }
        if not horizons:
            raise RuntimeError("no progress possible: zero rates")
        step = min(horizons.values())
        now += step
        finished = []
        for name in list(remaining):
            remaining[name] -= rates[name] * step
            if remaining[name] <= 1e-6:
                finished.append(name)
        for name in finished:
            del remaining[name]
            result.completion_us[name] = now
    return result


def task_model_metrics(
    tasks: Sequence[Task], transport: str = "tcp"
) -> Dict[str, TaskModelResult]:
    """Evaluate the task model under both notions (Table 1's rows)."""
    return {
        "rf": fluid_completion_times(tasks, "rf", transport),
        "tf": fluid_completion_times(tasks, "tf", transport),
    }
