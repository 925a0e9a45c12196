"""The paper's analytic framework (Section 2).

* :mod:`repro.analysis.model` — baseline throughput β(d, s, I) (the
  paper's measured Table 2 values plus an analytic computation from
  MAC/PHY timing) and Equations 4-13, evaluated by one ``predict``:
  channel-time shares and throughputs under DCF/throughput-based
  fairness (RF) and under time-based fairness (TF);
* :mod:`repro.analysis.fairness` — fairness measures (Jain index, the
  paper's |phi_i - phi_j| gaps);
* :mod:`repro.analysis.efficiency` — fluid- and task-model efficiency:
  AggrThruput, AvgTaskTime, FinalTaskTime (Table 1).
"""

from repro.analysis.model import (
    PAPER_TABLE2_TCP_MBPS,
    analytic_baseline_mbps,
    NodeSpec,
    tf_time_shares,
    predict,
    FairnessPrediction,
)
from repro.analysis.fairness import (
    jain_index,
)
from repro.analysis.efficiency import (
    Task,
    fluid_completion_times,
    task_model_metrics,
    TaskModelResult,
)

__all__ = [
    "PAPER_TABLE2_TCP_MBPS",
    "analytic_baseline_mbps",
    "NodeSpec",
    "tf_time_shares",
    "predict",
    "FairnessPrediction",
    "jain_index",
    "Task",
    "fluid_completion_times",
    "task_model_metrics",
    "TaskModelResult",
]
