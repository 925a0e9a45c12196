"""Figure 1: rate diversity exists.

Four bars of byte-per-rate fractions: three synthetic workshop sessions
(calibrated to the published mixes — the captures are not
redistributable) and EXP-1, which we reproduce as a *live simulation*:
an AP saturating four downlink UDP receivers placed at increasing
distance behind walls, with ARF rate adaptation and SNR-driven loss.
The paper's headline observations: WS-2 carries >30 % of bytes below
11 Mbps, and EXP-1 carries >50 % of bytes at 1 Mbps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping

from repro.campaign.executor import serial_results
from repro.campaign.job import Job, make_job
from repro.channel.loss import SnrLoss
from repro.channel.propagation import LogDistancePathLoss, RadioEnvironment
from repro.experiments.common import fmt_table
from repro.node.cell import Cell
from repro.node.rate_control import ArfController
from repro.traces.analyze import rate_fractions
from repro.traces.records import TraceRecord
from repro.traces.sniffer import ChannelSniffer
from repro.traces.synthetic import (
    PAPER_WORKSHOP_MIXES,
    WorkshopTraceConfig,
    generate_workshop_trace,
)

RATE_ORDER = (1.0, 2.0, 5.5, 11.0)

#: EXP-1 receiver placement (paper: ~4 ft; 12 ft + 1 thin wall;
#: 26 ft + 2 thin walls; 30 ft + 2 thick walls).  Distances in metres;
#: the 12-ft link carries extra measured shadowing (indoor reality per
#: Kotz et al.), calibrated so the settled rates are 11/5.5/1/1.
EXP1_PLACEMENT = (
    ("r1", 1.2, 0.0, 0.0),   # (name, distance_m, walls, shadowing_db)
    ("r2", 3.7, 1.0, 16.0),
    ("r3", 7.9, 2.0, 4.7),
    ("r4", 9.1, 2.0, 2.1),
)


@dataclass
class Fig1Result:
    #: session label -> {rate: byte fraction}
    fractions: Dict[str, Dict[float, float]] = field(default_factory=dict)

    def below_11_fraction(self, session: str) -> float:
        return sum(
            frac for rate, frac in self.fractions[session].items() if rate < 11.0
        )

    def at_1_fraction(self, session: str) -> float:
        return self.fractions[session].get(1.0, 0.0)


def build_exp1_cell(seed: int = 1) -> Cell:
    """The EXP-1 office: AP + four UDP receivers behind walls."""
    import random as _random

    env = RadioEnvironment(
        LogDistancePathLoss(
            reference_loss_db=40.0, exponent=4.2, wall_loss_db=6.0
        ),
        tx_power_dbm=2.0,
        noise_floor_dbm=-92.0,
    )
    env.place("ap", 0.0, 0.0)
    for name, dist, walls, shadow in EXP1_PLACEMENT:
        env.place(name, dist, 0.0)
        env.set_walls("ap", name, walls)
        if shadow:
            env.set_shadowing("ap", name, shadow)

    # Hand-built: the spec language has no SNR-driven loss model and no
    # rate controller (ARF) on the AP.
    cell = Cell(
        seed=seed,
        scheduler="rr",
        loss_model=SnrLoss(env, rng=_random.Random(f"exp1/{seed}")),
        ap_rate_controller=ArfController(),
    )
    for name, _, _, _ in EXP1_PLACEMENT:
        cell.add_station(name, rate_mbps=11.0)
        cell.udp_flow(cell.stations[name], direction="down", rate_mbps=3.0)
    return cell


def run_exp1(seed: int = 1, seconds: float = 20.0) -> Dict[float, float]:
    """Simulate EXP-1 and return the sniffed byte-per-rate fractions."""
    cell = build_exp1_cell(seed)
    sniffer = ChannelSniffer(cell.channel)
    cell.run(seconds=seconds)
    downlink = [r for r in sniffer.records if r.direction == "down"]
    return rate_fractions(downlink)


SESSIONS = ("WS-1", "WS-2", "WS-3")

WORKSHOP_EXECUTOR = "repro.experiments.fig1:execute_workshop"
EXP1_EXECUTOR = "repro.experiments.fig1:execute_exp1"


def execute_workshop(params: Dict) -> Dict[float, float]:
    """Job executor: synthesize one workshop session's byte mix."""
    config = WorkshopTraceConfig(
        session=params["session"],
        total_bytes=params["total_bytes"],
        n_users=params["n_users"],
    )
    return rate_fractions(generate_workshop_trace(config, seed=params["seed"]))


def execute_exp1(params: Dict) -> Dict[float, float]:
    """Job executor: simulate EXP-1 and sniff its downlink byte mix."""
    return run_exp1(params["seed"], params["seconds"])


def jobs(seed: int = 1, seconds: float = 20.0) -> List[Job]:
    out = [
        make_job(
            "fig1", session, WORKSHOP_EXECUTOR,
            {
                "session": session,
                "total_bytes": 30_000_000,
                "n_users": 20,
                "seed": seed,
            },
        )
        for session in SESSIONS
    ]
    out.append(
        make_job(
            "fig1", "EXP-1", EXP1_EXECUTOR, {"seed": seed, "seconds": seconds}
        )
    )
    return out


def reduce(results: Mapping[str, Dict[float, float]]) -> Fig1Result:
    result = Fig1Result()
    for session in (*SESSIONS, "EXP-1"):
        result.fractions[session] = results[session]
    return result


def run(seed: int = 1, seconds: float = 20.0) -> Fig1Result:
    return reduce(serial_results(jobs(seed=seed, seconds=seconds)))


def render(result: Fig1Result) -> str:
    headers = ["rate (Mbps)"] + list(result.fractions)
    rows = []
    for rate in RATE_ORDER:
        row = [f"{rate:g}"]
        for session in result.fractions:
            frac = result.fractions[session].get(rate, 0.0)
            row.append(f"{frac * 100:5.1f}%")
        rows.append(row)
    table = fmt_table(
        headers, rows, title="Figure 1: fraction of bytes per data rate"
    )
    return (
        f"{table}\n"
        f"WS-2 below 11 Mbps: {result.below_11_fraction('WS-2') * 100:.0f}% "
        f"(paper: >30%)\n"
        f"EXP-1 at 1 Mbps: {result.at_1_fraction('EXP-1') * 100:.0f}% "
        f"(paper: >50%)"
    )
