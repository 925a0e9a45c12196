"""Section 2's analytic model: baseline throughput β(d, s, I) and Eqs 4-13.

β(d, s, I) is the maximum total throughput when every node in I uses
data rate ``d`` and packet size ``s`` under similar (low) loss.  Table 2
measures it for two TCP nodes with 1500-byte packets
(:data:`PAPER_TABLE2_TCP_MBPS`); :func:`analytic_baseline_mbps` derives
it from MAC timing.

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
QoS extension).  :func:`predict` evaluates all of them over one node set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.phy.phy import DOT11B_LONG_PREAMBLE, exchange_airtime_us

#: Paper Table 2: measured two-node TCP baseline throughputs (Mbps) for
#: 1500-byte packets at each 802.11b rate.
PAPER_TABLE2_TCP_MBPS: Dict[float, float] = {
    11.0: 5.189,
    5.5: 3.327,
    2.0: 1.493,
    1.0: 0.806,
}

#: The PHY the analytic β is timed on.
PHY = DOT11B_LONG_PREAMBLE
#: TCP/IP header bytes in every data packet (goodput counts the rest).
TCP_HEADER_BYTES = 40
#: Size of one TCP-ack packet.
TCP_ACK_BYTES = 40
#: Data packets per TCP ack (delayed acks).
DELACK_SEGMENTS = 2


def _contention_gap_us(n_nodes: int) -> float:
    """Average contention idle time per transmission with ``n_nodes``
    saturated contenders: the expected minimum of n uniform backoff
    draws, ``slot * cw_min / 2 / (n + 1)`` to first order."""
    if n_nodes < 1:
        raise ValueError("need at least one node")
    return PHY.slot_us * PHY.cw_min / 2.0 / (n_nodes + 1)


def analytic_baseline_mbps(
    rate_mbps: float,
    packet_bytes: int = 1500,
    n_nodes: int = 2,
    *,
    transport: str = "tcp",
) -> float:
    """β(d, s, I) from timing; ``transport`` is ``"tcp"`` or ``"udp"``.

    One data packet costs its exchange airtime plus the contention gap.
    UDP's goodput is the whole packet.  TCP also carries one TCP-ack
    exchange per :data:`DELACK_SEGMENTS` data packets, and its goodput
    counts the payload past :data:`TCP_HEADER_BYTES` only.
    """
    gap = _contention_gap_us(n_nodes)
    data_time = exchange_airtime_us(PHY, packet_bytes, rate_mbps) + gap
    if transport == "udp":
        return packet_bytes * 8.0 / data_time
    if transport != "tcp":
        raise ValueError(f"unknown transport {transport!r}")
    if packet_bytes <= TCP_HEADER_BYTES:
        raise ValueError(
            f"a TCP packet needs more than its {TCP_HEADER_BYTES}-byte header"
        )
    ack_time = exchange_airtime_us(PHY, TCP_ACK_BYTES, rate_mbps) + gap
    k = DELACK_SEGMENTS
    mss = packet_bytes - TCP_HEADER_BYTES
    return k * mss * 8.0 / (k * data_time + ack_time)


@dataclass(frozen=True)
class NodeSpec:
    """One competing node in the analytic model.

    ``beta_mbps`` may be given directly (e.g. from the paper's Table 2
    or from a calibration simulation); otherwise :func:`predict` derives
    it from the timing model for ``rate_mbps``/``packet_bytes``.
    """

    name: str
    rate_mbps: float
    packet_bytes: int = 1500
    beta_mbps: Optional[float] = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        if min(self.rate_mbps, self.packet_bytes, self.weight) <= 0:
            raise ValueError("rate, packet size and weight must be positive")
        if self.beta_mbps is not None and self.beta_mbps <= 0:
            raise ValueError("beta_mbps must be positive")


def tf_time_shares(nodes: Sequence[NodeSpec]) -> Dict[str, float]:
    """Eq 11 (weighted): equal/weighted channel-time shares."""
    total_weight = sum(node.weight for node in nodes)
    return {node.name: node.weight / total_weight for node in nodes}


@dataclass
class FairnessPrediction:
    """Side-by-side RF/TF prediction for a node set."""

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
    """Evaluate both fairness notions over ``nodes``.

    Each node's β is its ``beta_mbps`` or the analytic β with all
    ``len(nodes)`` nodes contending.  RF is DCF's Eq 4 shares with
    Eqs 2+4 throughputs (Eq 6 for equal sizes); TF is Eqs 11 and 12.
    """
    if not nodes:
        raise ValueError("need at least one node")
    betas = {
        node.name: node.beta_mbps
        if node.beta_mbps is not None
        else analytic_baseline_mbps(
            node.rate_mbps, node.packet_bytes, len(nodes), transport=transport
        )
        for node in nodes
    }
    if len(betas) != len(nodes):
        raise ValueError("duplicate node names")
    costs = {node.name: node.packet_bytes / betas[node.name] for node in nodes}
    total = sum(costs.values())
    rf_shares = {n: cost / total for n, cost in costs.items()}
    tf_shares = tf_time_shares(nodes)
    return FairnessPrediction(
        rf_per_node={n: rf_shares[n] * beta for n, beta in betas.items()},
        tf_per_node={n: tf_shares[n] * beta for n, beta in betas.items()},
        rf_shares=rf_shares,
        tf_shares=tf_shares,
    )
