"""Figure 4: equal sharing among three same-rate nodes.

Three stations at 11 Mbps exchange data with the AP in four
configurations (UDP/TCP x up/down).  The paper's observations:

* per-node throughputs are approximately equal in every configuration
  (DCF uplink, AP queue downlink);
* TCP totals are below UDP totals (TCP-ack overhead);
* uplink totals exceed downlink totals (a single sender — the AP —
  pays a mandatory post-transmission backoff per frame and cannot
  saturate the channel).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping

from repro.campaign.executor import serial_results
from repro.campaign.job import Job
from repro.experiments.common import (
    competing_job,
    fmt_mbps,
    fmt_table,
)
from repro.scenario.runner import ScenarioResult

CONFIGS = ("udp_down", "udp_up", "tcp_down", "tcp_up")

#: Paper Figure 4, approximate per-node bars (Mbps).
PAPER_PER_NODE = {
    "udp_down": 1.85,
    "udp_up": 2.20,
    "tcp_down": 1.40,
    "tcp_up": 1.70,
}


@dataclass
class Fig4Result:
    runs: Dict[str, ScenarioResult] = field(default_factory=dict)


def jobs(seed: int = 1, seconds: float = 15.0) -> List[Job]:
    out = []
    for config in CONFIGS:
        transport, direction = config.split("_")
        # The paper attributes downlink equality to the AP "usually
        # transmitting to wireless clients in a round-robin manner".
        scheduler = "rr" if direction == "down" else "fifo"
        out.append(
            competing_job(
                "fig4", config,
                [11.0, 11.0, 11.0],
                direction=direction,
                transport=transport,
                udp_rate_mbps=4.0,
                scheduler=scheduler,
                seconds=seconds,
                seed=seed,
            )
        )
    return out


def reduce(results: Mapping[str, ScenarioResult]) -> Fig4Result:
    result = Fig4Result()
    for config in CONFIGS:
        result.runs[config] = results[config]
    return result


def run(seed: int = 1, seconds: float = 15.0) -> Fig4Result:
    return reduce(serial_results(jobs(seed=seed, seconds=seconds)))


def render(result: Fig4Result) -> str:
    rows = []
    for config in CONFIGS:
        res = result.runs[config]
        thr = res.throughput_mbps
        rows.append(
            [
                config,
                fmt_mbps(thr["n1"]),
                fmt_mbps(thr["n2"]),
                fmt_mbps(thr["n3"]),
                fmt_mbps(res.total_mbps),
                f"{PAPER_PER_NODE[config]:.2f}",
            ]
        )
    return fmt_table(
        ["config", "node1", "node2", "node3", "total", "paper/node"],
        rows,
        title="Figure 4: three 11 Mbps nodes, UDP/TCP x up/down",
    )
