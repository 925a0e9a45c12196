"""Ablations and extensions around TBR's design choices.

These regenerate the paper's Section 4/5 discussion points that have no
dedicated figure:

* **retry accounting** — the paper's prototype cannot see uplink
  retransmissions and slightly biases slow/lossy stations (the
  Exp-TBR-vs-Eq12 gap); ``TbrConfig(uplink_charge="oracle")`` reads
  true attempt counts;
* **bucket depth** — deeper buckets allow longer bursts and worsen
  short-term fairness (Section 4.5);
* **weighted shares** — the QoS extension (unequal rate_i);
* **work conservation** — strict Figure 6 dequeue vs an immediate
  borrowing fallback (which defeats uplink regulation);
* **polling MAC** — PCF-style polling with TBR dictating the poll order;
* **OAR** — the related-work baseline that needs every client modified;
* **client cooperation** — the notification bit for uplink UDP;
* **802.11g coexistence** — the paper's motivation: a 54 Mbps client
  dragged down by an 802.11b peer, and what TBR restores.

Each is one row of :data:`ABLATIONS`: a *matrix* function ``(seed=,
seconds=, ...) -> {label: case}`` and a renderer over ``{label:
result}``.  A case is a :class:`ScenarioSpec` run by the one
``scenario_job``, or a ``(spec, windows_us)`` pair for a run whose
result also carries per-window airtime (bucket depth's fairness
windows).  An ``(executor, params)`` pair is left only for the polling
MAC, which the spec language has no word for.
"""

from __future__ import annotations

import statistics
from typing import (
    Any, Callable, Dict, Hashable, List, Mapping, Optional, Tuple, Union,
)

from repro.analysis.fairness import jain_index
from repro.campaign.job import Job, make_job
from repro.core.tbr import TbrConfig, TbrScheduler
from repro.experiments.common import competing_spec, fmt_table
from repro.scenario.runner import ScenarioResult, scenario_job
from repro.scenario.spec import FlowSpec, ScenarioSpec, StationSpec
from repro.sim import Simulator, us_from_s

#: One labelled case of an ablation: a spec, ``(spec, windows_us)``
#: (``abl-bucket-depth``) or ``(executor, params)`` (``abl-polling``).
#: A windowed case is a pair because :func:`jobs` unpacks one anyway:
#: a spec becomes ``(spec, ())`` and one ``isinstance`` picks the arm,
#: where a ready-made ``Job`` would repeat the row's name and label.
Case = Union[ScenarioSpec, Tuple[Any, Any]]


def _throughput_rows(
    throughputs: Mapping[str, Mapping[str, float]], first: str, second: str
) -> List[List[str]]:
    """One ``[label, first's Mbps, second's Mbps, total]`` row per case."""
    return [
        [label, f"{thr[first]:.3f}", f"{thr[second]:.3f}",
         f"{sum(thr.values()):.3f}"]
        for label, thr in throughputs.items()
    ]


def _station_throughputs(
    results: Mapping[str, ScenarioResult]
) -> Dict[str, Dict[str, float]]:
    return {label: r.throughput_mbps for label, r in results.items()}


# ----------------------------------------------------------------------
# retry accounting
# ----------------------------------------------------------------------
RETRY_LOSS_RATE = 0.08


def retry_accounting(
    seed: int = 1, seconds: float = 15.0, loss_rate: float = RETRY_LOSS_RATE
) -> Dict[str, Case]:
    """1 Mbps lossy uplink vs clean 11 Mbps uplink, TBR with and
    without retransmission information."""
    return {
        label: ScenarioSpec(
            name=f"abl-retry/{label}", scheduler="tbr",
            tbr_config=TbrConfig(uplink_charge=charge),
            stations=(
                StationSpec("n1", rate_mbps=1.0, uplink_loss=loss_rate),
                StationSpec("n2", rate_mbps=11.0),
            ),
            flows=(FlowSpec("n1"), FlowSpec("n2")),
            seconds=seconds, warmup_seconds=3.0, seed=seed,
        )
        for label, charge in (("blind", "one"), ("oracle", "oracle"))
    }


def slow_node_bias(results: Mapping[str, ScenarioResult]) -> float:
    """How much extra throughput the lossy slow node keeps when its
    retries are invisible (paper: TBR 'slightly biased the node
    sending at a lower data rate')."""
    blind = results["blind"].throughput_mbps["n1"]
    oracle = results["oracle"].throughput_mbps["n1"]
    if oracle <= 0:
        return 0.0
    return blind / oracle - 1.0


def render_retry_accounting(
    results: Mapping[str, ScenarioResult],
    loss_rate: float = RETRY_LOSS_RATE,
) -> str:
    table = fmt_table(
        ["accounting", "n1 (1 Mbps, lossy)", "n2 (11 Mbps)", "total"],
        _throughput_rows(_station_throughputs(results), "n1", "n2"),
        title=(
            f"Retry accounting ablation ({loss_rate * 100:.0f}% uplink "
            f"loss on n1)"
        ),
    )
    return (
        f"{table}\n"
        f"slow-node bias without retry info: "
        f"{slow_node_bias(results) * 100:+.1f}% (paper: small positive)"
    )


# ----------------------------------------------------------------------
# bucket depth (short-term fairness)
# ----------------------------------------------------------------------
DEFAULT_DEPTHS_US = (20_000.0, 100_000.0, 500_000.0, 2_000_000.0)
#: Width of the short-term fairness windows, in seconds.
WINDOW_S = 0.5
#: Warm-up before the first window, in seconds.
WARMUP_S = 2.0


def bucket_depth(
    seed: int = 1,
    seconds: float = 12.0,
    depths_us: Tuple[float, ...] = DEFAULT_DEPTHS_US,
) -> Dict[float, Case]:
    """Sweep bucket depth; measure occupancy fairness long-term and over
    short windows (deep buckets allow long one-station bursts)."""
    if seconds < WINDOW_S or not (seconds / WINDOW_S).is_integer():
        raise ValueError(
            f"seconds must be a whole number of {WINDOW_S:g} s fairness "
            f"windows, got {seconds!r}"
        )
    steps = round(seconds / WINDOW_S)
    edges_us = [us_from_s(WARMUP_S + k * WINDOW_S) for k in range(steps + 1)]
    return {
        depth: (
            competing_spec(
                [1.0, 11.0], direction="down", scheduler="tbr",
                tbr_config=TbrConfig(
                    bucket_depth_us=depth, initial_tokens_us=depth / 5.0
                ),
                seconds=seconds, warmup_seconds=WARMUP_S, seed=seed,
            ),
            edges_us,
        )
        for depth in depths_us
    }


def depth_fairness(
    results: Mapping[float, ScenarioResult]
) -> Dict[float, Tuple[float, float]]:
    """depth_us -> (long-term Jain over station occupancy, mean Jain
    over the inner windows with any airtime: the first and last lie
    outside the measured stretch)."""
    fairness = {}
    for depth, result in results.items():
        window_jains = [
            jain_index(list(window.values()))
            for window in result.windows[1:-1]
            if sum(window.values()) > 0
        ]
        fairness[depth] = (
            jain_index(list(result.occupancy.values())),
            statistics.mean(window_jains) if window_jains else 0.0,
        )
    return fairness


def render_bucket_depth(results: Mapping[float, ScenarioResult]) -> str:
    rows = [
        [f"{depth / 1000:.0f} ms", f"{lt:.3f}", f"{st:.3f}"]
        for depth, (lt, st) in depth_fairness(results).items()
    ]
    return fmt_table(
        ["bucket depth", "long-term Jain", "short-window Jain"],
        rows,
        title="Bucket depth vs occupancy fairness (1vs11 downlink, TBR)",
    )


# ----------------------------------------------------------------------
# weighted shares (QoS extension)
# ----------------------------------------------------------------------
WEIGHTS = {"n1": 3.0, "n2": 1.0}


def weighted_shares(seed: int = 1, seconds: float = 15.0) -> Dict[str, Case]:
    """Two same-rate stations with a 3:1 channel-time weighting."""
    return {
        "weighted": competing_spec(
            [11.0, 11.0], direction="down", scheduler="tbr",
            tbr_config=TbrConfig(weights=WEIGHTS, adjust_interval_us=0),
            seconds=seconds, seed=seed,
        )
    }


def occupancy_ratio(results: Mapping[str, ScenarioResult]) -> float:
    occupancy = results["weighted"].occupancy
    return (
        occupancy["n1"] / occupancy["n2"] if occupancy.get("n2") else 0.0
    )


def render_weighted_shares(results: Mapping[str, ScenarioResult]) -> str:
    result = results["weighted"]
    rows = [
        [
            name,
            f"{WEIGHTS.get(name, 1.0):g}",
            f"{result.occupancy[name]:.3f}",
            f"{result.throughput_mbps[name]:.3f}",
        ]
        for name in sorted(result.occupancy)
    ]
    table = fmt_table(
        ["station", "weight", "occupancy", "throughput (Mbps)"],
        rows,
        title="Weighted TBR shares (Section 4.5 QoS extension)",
    )
    return (
        f"{table}\n"
        f"occupancy ratio n1/n2: {occupancy_ratio(results):.2f} "
        f"(target {WEIGHTS['n1'] / WEIGHTS['n2']:g})"
    )


# ----------------------------------------------------------------------
# work conservation
# ----------------------------------------------------------------------
def work_conservation(seed: int = 1, seconds: float = 15.0) -> Dict[str, Case]:
    """Strict Figure 6 dequeue vs immediate borrowing, uplink 1vs11.

    The borrowing fallback re-releases the slow station's withheld TCP
    acks whenever no eligible queue is backlogged, which collapses TBR
    back to throughput fairness on uplink traffic.
    """
    return {
        label: competing_spec(
            [1.0, 11.0], direction="up", scheduler="tbr",
            tbr_config=TbrConfig(work_conserving=wc),
            seconds=seconds, seed=seed,
        )
        for label, wc in (("strict", False), ("borrowing", True))
    }


def render_work_conservation(results: Mapping[str, ScenarioResult]) -> str:
    return fmt_table(
        ["dequeue policy", "n1 (1 Mbps)", "n2 (11 Mbps)", "total"],
        _throughput_rows(_station_throughputs(results), "n1", "n2"),
        title="Work conservation ablation (uplink 1vs11, TBR)",
    )


# ----------------------------------------------------------------------
# polling MAC + TBR (Section 4.1's PCF remark)
# ----------------------------------------------------------------------
#: The polling case's kernel seed.  The polling MAC draws no random
#: number without a loss model, so the case's params leave the seed
#: out: one job per ``seconds``, whatever seed a campaign asks for.
POLLING_SEED = 1


def execute_polling_tbr(params: Dict) -> Dict[str, object]:
    """Job executor: saturated polled uplink under one poll policy.

    Returns ``{"throughput": {...}, "charged_time_ratio": float|None}``
    (the ratio only exists for the token-driven policy).  No ``Cell``
    at all: the spec language has no polling MAC.
    """
    from repro.channel.medium import Channel
    from repro.mac.polling import (
        PolledStation,
        PollingCoordinator,
        RoundRobinPollPolicy,
        TokenPollPolicy,
    )
    from repro.phy.phy import DOT11B_LONG_PREAMBLE
    from repro.queueing.round_robin import RoundRobinScheduler

    class _Pkt:
        size_bytes = 1500  # all a polled station reads of its payload

    label = params["policy"]
    seconds = params["seconds"]
    sim = Simulator(seed=POLLING_SEED)
    channel = Channel(sim)
    if label == "rr-poll":
        scheduler = RoundRobinScheduler()
        policy = RoundRobinPollPolicy()
    else:
        scheduler = TbrScheduler(sim)
        policy = TokenPollPolicy(scheduler)
    coordinator = PollingCoordinator(
        sim, channel, scheduler, DOT11B_LONG_PREAMBLE, policy
    )
    rx: Dict[str, int] = {}
    coordinator.rx_handler = lambda f, rx=rx: rx.__setitem__(
        f.src, rx.get(f.src, 0) + f.size_bytes
    )
    for name, rate in (("n1", 1.0), ("n2", 11.0)):
        station = PolledStation(
            sim, channel, name, DOT11B_LONG_PREAMBLE,
            rate_mbps=rate, queue_capacity=20_000,
        )
        policy.register(name)
        scheduler.associate(name)
        for _ in range(20_000):
            station.enqueue(_Pkt())
    sim.run(until=us_from_s(seconds))
    throughput = {
        name: rx.get(name, 0) * 8.0 / us_from_s(seconds)
        for name in ("n1", "n2")
    }
    ratio = None
    if label == "tbr-poll":
        buckets = scheduler.buckets
        ratio = buckets["n1"].spent_us / max(1.0, buckets["n2"].spent_us)
    return {"throughput": throughput, "charged_time_ratio": ratio}


def polling_tbr(seed: int = 1, seconds: float = 5.0) -> Dict[str, Case]:
    """Saturated uplink 1vs11 under a polling MAC, with the poll order
    driven by plain round robin vs TBR token state.

    The paper: "if the underlying MAC protocol employs a polling
    mechanism (such as 802.11's PCF), no explicit communication is
    necessary since TBR can dictate which node gets polled."
    """
    return {
        label: (
            execute_polling_tbr, {"policy": label, "seconds": seconds},
        )
        for label in ("rr-poll", "tbr-poll")
    }


def render_polling_tbr(results: Mapping[str, Dict[str, Any]]) -> str:
    table = fmt_table(
        ["poll order", "n1 (1M)", "n2 (11M)", "total"],
        _throughput_rows(
            {label: r["throughput"] for label, r in results.items()},
            "n1", "n2",
        ),
        title="Polling MAC (PCF-style) x poll policy, saturated uplink UDP",
    )
    ratio = results["tbr-poll"]["charged_time_ratio"]
    return (
        f"{table}\n"
        f"TBR-polled charged-time ratio n1/n2: {ratio:.2f} (target 1.0); "
        "no client modification involved."
    )


# ----------------------------------------------------------------------
# OAR baseline (related work [23], Sadeghi et al.)
# ----------------------------------------------------------------------
def _udp_uplink_spec(
    name: str, scheduler: str, seed: int, seconds: float,
    cooperate: bool = False, tbr_config: Optional[TbrConfig] = None,
    burst_base_rate_mbps: float = 0.0,
) -> ScenarioSpec:
    """A 1 Mbps station offering 2 Mbps and an 11 Mbps station offering
    8 Mbps of uplink UDP (``competing_spec`` has one offered rate) —
    the setup OAR and client cooperation share."""
    words = dict(
        cooperate_with_tbr=cooperate, burst_base_rate_mbps=burst_base_rate_mbps
    )
    return ScenarioSpec(
        name=name, scheduler=scheduler, tbr_config=tbr_config,
        stations=(
            StationSpec("n1", rate_mbps=1.0, **words),
            StationSpec("n2", rate_mbps=11.0, **words),
        ),
        flows=(
            FlowSpec("n1", kind="udp", rate_mbps=2.0),
            FlowSpec("n2", kind="udp", rate_mbps=8.0),
        ),
        seconds=seconds, warmup_seconds=3.0, seed=seed,
    )


def oar_comparison(seed: int = 1, seconds: float = 15.0) -> Dict[str, Case]:
    """DCF vs OAR vs TBR on uplink UDP, 1 Mbps vs 11 Mbps.

    OAR (Opportunistic Auto Rate) reaches temporal fairness inside the
    MAC: a station that wins contention at rate d sends d/base frames
    back-to-back.  It needs every *client* modified, whereas TBR only
    changes the AP (the paper's deployment argument); OAR's aggregate
    is higher because bursting also amortizes contention overhead.
    """
    return {
        "dcf": _udp_uplink_spec("abl-oar/dcf", "fifo", seed, seconds),
        # Every client MAC bursts at a 1 Mbps base rate, stock AP.
        "oar": _udp_uplink_spec(
            "abl-oar/oar", "fifo", seed, seconds, burst_base_rate_mbps=1.0,
        ),
        "tbr": _udp_uplink_spec(
            "abl-oar/tbr", "tbr", seed, seconds, cooperate=True,
            tbr_config=TbrConfig(notify_clients=True),
        ),
    }


def render_oar_comparison(results: Mapping[str, ScenarioResult]) -> str:
    rows = []
    for label, result in results.items():
        thr, occ = result.throughput_mbps, result.occupancy
        rows.append(
            [
                label,
                f"{thr['n1']:.3f}",
                f"{thr['n2']:.3f}",
                f"{result.total_mbps:.3f}",
                f"{occ['n1']:.2f}/{occ['n2']:.2f}",
            ]
        )
    table = fmt_table(
        ["MAC/AP", "n1 (1M)", "n2 (11M)", "total", "time n1/n2"],
        rows,
        title="OAR baseline vs TBR (uplink UDP, 1vs11)",
    )
    return (
        f"{table}\n"
        "OAR modifies every client MAC; TBR changes only the AP "
        "(the paper's deployment argument)."
    )


# ----------------------------------------------------------------------
# client cooperation (uplink UDP, paper Section 4.1)
# ----------------------------------------------------------------------
def client_cooperation(seed: int = 1, seconds: float = 15.0) -> Dict[str, Case]:
    """Uplink *UDP* 1vs11 under TBR, with and without the client agent.

    Uplink UDP has no ack stream the AP can withhold, so TBR needs the
    notification bit + client-side defer (Section 4.1).  Without it the
    slow station's occupancy stays near DCF's; with it, TBR's hints
    piggybacked on MAC ACKs bring both stations toward equal time.
    """
    return {
        label: _udp_uplink_spec(
            f"abl-cooperation/{label}", "tbr", seed, seconds,
            cooperate=cooperate,
            tbr_config=TbrConfig(
                notify_clients=cooperate, defer_hint_us=8_000.0
            ),
        )
        for label, cooperate in (("no-agent", False), ("client-agent", True))
    }


def render_client_cooperation(results: Mapping[str, ScenarioResult]) -> str:
    rows = []
    for label, result in results.items():
        thr, occ = result.throughput_mbps, result.occupancy
        rows.append(
            [
                label,
                f"{thr['n1']:.3f}",
                f"{thr['n2']:.3f}",
                f"{occ['n1']:.3f}",
                f"{occ['n2']:.3f}",
            ]
        )
    return fmt_table(
        ["config", "thr n1 (1M)", "thr n2 (11M)", "time n1", "time n2"],
        rows,
        title="Client cooperation for uplink UDP (TBR notification bit)",
    )


# ----------------------------------------------------------------------
# 802.11b/g coexistence (the paper's motivation)
# ----------------------------------------------------------------------
def bg_coexistence(seed: int = 1, seconds: float = 15.0) -> Dict[str, Case]:
    """A 54 Mbps (802.11g) client sharing a protection-mode cell with a
    1 Mbps 802.11b client, with and without TBR.

    Mixed-mode timing is modelled conservatively: b-compatible PLCP and
    slots with the payload at the OFDM rate (CTS-to-self protection
    overhead folded into the long preamble).
    """
    return {
        label: competing_spec(
            {"g1": 54.0, "b1": 1.0}, direction="down", scheduler=scheduler,
            seconds=seconds, seed=seed,
        )
        for label, scheduler in (("normal", "fifo"), ("tbr", "tbr"))
    }


def g_recovery(results: Mapping[str, ScenarioResult]) -> float:
    """How much of its throughput the g client regains under TBR."""
    normal = results["normal"].throughput_mbps["g1"]
    tbr = results["tbr"].throughput_mbps["g1"]
    return tbr / normal if normal > 0 else 0.0


def render_bg_coexistence(results: Mapping[str, ScenarioResult]) -> str:
    table = fmt_table(
        ["config", "g client (54M)", "b client (1M)", "total"],
        _throughput_rows(_station_throughputs(results), "g1", "b1"),
        title="802.11b/g coexistence (downlink TCP, protection-mode timing)",
    )
    return (
        f"{table}\n"
        f"g client keeps {g_recovery(results):.1f}x more throughput under TBR"
    )


# ----------------------------------------------------------------------
# the table, and the two functions written once over it
# ----------------------------------------------------------------------
#: ``name -> (matrix, render)``; the name is the ``experiment`` field of
#: every job the row builds.
ABLATIONS: Dict[str, Tuple[Callable[..., Dict[Hashable, Case]], Callable]] = {
    "abl-retry": (retry_accounting, render_retry_accounting),
    "abl-bucket-depth": (bucket_depth, render_bucket_depth),
    "abl-weighted": (weighted_shares, render_weighted_shares),
    "abl-work-conservation": (work_conservation, render_work_conservation),
    "abl-polling": (polling_tbr, render_polling_tbr),
    "abl-oar": (oar_comparison, render_oar_comparison),
    "abl-cooperation": (client_cooperation, render_client_cooperation),
    "abl-bg": (bg_coexistence, render_bg_coexistence),
}


def jobs(name: str, **knobs) -> List[Job]:
    """One job per labelled case of ablation ``name``, in matrix order."""
    matrix, _ = ABLATIONS[name]
    out = []
    for label, case in matrix(**knobs).items():
        head, tail = (case, ()) if isinstance(case, ScenarioSpec) else case
        if isinstance(head, ScenarioSpec):
            out.append(
                scenario_job(head, experiment=name, key=label, windows_us=tail)
            )
        else:
            address = f"{head.__module__}:{head.__qualname__}"
            out.append(make_job(name, label, address, tail))
    return out
