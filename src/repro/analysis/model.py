"""Equations 4-13: the paper's analytic model of multi-rate sharing.

Given competing nodes i with data rate d_i, packet size s_i and
baseline throughput β_i = β(d_i, s_i, I):

Under DCF (equal transmission opportunities, throughput-based fairness
when sizes match):

    T(i)  = (s_i/β_i) / Σ_j (s_j/β_j)                 (Eq 4)
    R(i)  = T(i) · β_i                                (Eq 2)
    R(I)  = Σ_i R(i)                                  (Eq 3)

and with equal sizes these reduce to Eqs 5-7 (equal per-node
throughputs).  Under time-based fairness:

    T'(i) = 1/n                                       (Eq 11)
    R'(i) = β_i / n                                   (Eq 12)
    R'(I) = (1/n) Σ_i β_i                             (Eq 13)

Weighted variants generalize 1/n to w_i/Σw (the paper's Section 4.5
QoS extension).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.baseline import analytic_baseline_mbps


@dataclass(frozen=True)
class NodeSpec:
    """One competing node in the analytic model.

    ``beta_mbps`` may be given directly (e.g. from the paper's Table 2
    or from a calibration simulation); otherwise it is derived from the
    timing model for ``rate_mbps``/``packet_bytes``.
    """

    name: str
    rate_mbps: float
    packet_bytes: int = 1500
    beta_mbps: Optional[float] = None
    weight: float = 1.0

    def beta(self, n_nodes: int, transport: str = "tcp") -> float:
        if self.beta_mbps is not None:
            return self.beta_mbps
        return analytic_baseline_mbps(
            self.rate_mbps, self.packet_bytes, n_nodes, transport=transport
        )


def _betas(nodes: Sequence[NodeSpec], transport: str) -> List[float]:
    if not nodes:
        raise ValueError("need at least one node")
    n = len(nodes)
    return [node.beta(n, transport) for node in nodes]


def dcf_time_shares(
    nodes: Sequence[NodeSpec], transport: str = "tcp"
) -> Dict[str, float]:
    """Eq 4: channel-occupancy share of each node under DCF."""
    betas = _betas(nodes, transport)
    costs = [node.packet_bytes / beta for node, beta in zip(nodes, betas)]
    total = sum(costs)
    return {node.name: cost / total for node, cost in zip(nodes, costs)}


def rf_throughputs(
    nodes: Sequence[NodeSpec], transport: str = "tcp"
) -> Dict[str, float]:
    """Eqs 2+4 (Eq 6 for equal sizes): per-node throughput under DCF."""
    betas = _betas(nodes, transport)
    shares = dcf_time_shares(nodes, transport)
    return {
        node.name: shares[node.name] * beta for node, beta in zip(nodes, betas)
    }


def tf_time_shares(nodes: Sequence[NodeSpec]) -> Dict[str, float]:
    """Eq 11 (weighted): equal/weighted channel-time shares."""
    total_weight = sum(node.weight for node in nodes)
    if total_weight <= 0:
        raise ValueError("weights must sum to a positive value")
    return {node.name: node.weight / total_weight for node in nodes}


def tf_throughputs(
    nodes: Sequence[NodeSpec], transport: str = "tcp"
) -> Dict[str, float]:
    """Eq 12 (weighted): per-node throughput under time-based fairness."""
    betas = _betas(nodes, transport)
    shares = tf_time_shares(nodes)
    return {
        node.name: shares[node.name] * beta for node, beta in zip(nodes, betas)
    }


@dataclass
class FairnessPrediction:
    """Side-by-side RF/TF prediction for a node set."""

    nodes: List[NodeSpec]
    transport: str
    rf_per_node: Dict[str, float] = field(default_factory=dict)
    tf_per_node: Dict[str, float] = field(default_factory=dict)
    rf_shares: Dict[str, float] = field(default_factory=dict)
    tf_shares: Dict[str, float] = field(default_factory=dict)

    @property
    def rf_total(self) -> float:
        return sum(self.rf_per_node.values())

    @property
    def tf_total(self) -> float:
        return sum(self.tf_per_node.values())

    @property
    def improvement(self) -> float:
        """TF aggregate gain over RF (e.g. 0.82 = +82%, Table 3)."""
        if self.rf_total <= 0:
            return 0.0
        return self.tf_total / self.rf_total - 1.0


def predict(
    nodes: Sequence[NodeSpec], transport: str = "tcp"
) -> FairnessPrediction:
    """Evaluate both fairness notions over ``nodes``."""
    return FairnessPrediction(
        nodes=list(nodes),
        transport=transport,
        rf_per_node=rf_throughputs(nodes, transport),
        tf_per_node=tf_throughputs(nodes, transport),
        rf_shares=dcf_time_shares(nodes, transport),
        tf_shares=tf_time_shares(nodes),
    )
