"""The paper's analytic framework (Section 2).

* :mod:`repro.analysis.baseline` — baseline throughput β(d, s, I):
  the paper's measured Table 2 values plus an analytic computation from
  MAC/PHY timing;
* :mod:`repro.analysis.model` — Equations 4-13: channel-time shares and
  throughputs under DCF/throughput-based fairness (RF) and under
  time-based fairness (TF);
* :mod:`repro.analysis.fairness` — fairness measures (Jain index, the
  paper's |phi_i - phi_j| gaps);
* :mod:`repro.analysis.efficiency` — fluid- and task-model efficiency:
  AggrThruput, AvgTaskTime, FinalTaskTime (Table 1).
"""

from repro.analysis.baseline import (
    PAPER_TABLE2_TCP_MBPS,
    analytic_baseline_mbps,
    BaselineModel,
)
from repro.analysis.model import (
    NodeSpec,
    dcf_time_shares,
    rf_throughputs,
    tf_time_shares,
    tf_throughputs,
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
    "BaselineModel",
    "NodeSpec",
    "dcf_time_shares",
    "rf_throughputs",
    "tf_time_shares",
    "tf_throughputs",
    "predict",
    "FairnessPrediction",
    "jain_index",
    "Task",
    "fluid_completion_times",
    "task_model_metrics",
    "TaskModelResult",
]
