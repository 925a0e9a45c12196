"""Shared machinery for the per-figure/table experiment modules.

Every experiment module in this package exposes::

    jobs(seed=..., seconds=...) -> List[Job]   # declarative sim configs
    reduce(results) -> <Result dataclass>      # pure assembly by job key
    run(seed=..., seconds=...) -> <Result dataclass>   # serial wrapper
    render(result) -> str          # ASCII table(s), paper-vs-measured

and module-level ``PAPER_*`` constants holding the values the paper
reports, so benchmarks can assert *shape* (who wins, by what factor).
``run()`` is exactly ``reduce(serial_results(jobs(...)))``; the campaign
executor (``repro.campaign``) runs the same jobs across worker
processes and through the on-disk result cache instead.

A setup the spec language can say is a :class:`ScenarioSpec` run by the
one :func:`~repro.scenario.runner.scenario_job`; the competing-stations
shape most figures share is :func:`competing_spec`.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.campaign.job import Job, make_job
from repro.core.tbr import TbrConfig
from repro.phy.phy import DOT11B_LONG_PREAMBLE, PhyParams
from repro.scenario.builder import ScenarioRuntime
from repro.scenario.registry import build_spec
from repro.scenario.runner import (
    ScenarioResult,
    fmt_table,
    run_spec,
    scenario_job,
)
from repro.scenario.spec import FlowSpec, ScenarioSpec, StationSpec


def competing_spec(
    rates: Union[Dict[str, float], Sequence[float]],
    *,
    direction: str = "up",
    scheduler: str = "fifo",
    transport: str = "tcp",
    udp_rate_mbps: float = 4.0,
    seconds: float = 15.0,
    warmup_seconds: float = 3.0,
    seed: int = 1,
    tbr_config: Optional[TbrConfig] = None,
    phy: PhyParams = DOT11B_LONG_PREAMBLE,
) -> ScenarioSpec:
    """The competing-stations setup as a declarative ScenarioSpec.

    One station per entry of ``rates``, each with a single bulk TCP (or
    CBR UDP) flow in ``direction`` — the paper's universal experiment
    shape, expressed in the same spec language as the scenario
    families, so sweeps, the campaign cache and the builder treat both
    identically.  A sequence of rates is named ``n1, n2, ...`` here, so
    fig3's ``[1.0, 11.0]`` and fig9's ``(1.0, 11.0)`` are the same spec
    and coalesce into a single simulation.

    The windows are additive: the cell first runs ``warmup_seconds``
    (discarded), then measures for ``seconds`` — so a warm-up longer
    than the measurement window is legitimate (the golden fig8/fig9
    runs measure 1 s after a 3 s warm-up).  What *is* degenerate is a
    non-positive measurement window: every throughput and occupancy
    divides by it.
    """
    if transport not in ("tcp", "udp"):
        raise ValueError(f"unknown transport {transport!r}")
    if seconds <= 0:
        raise ValueError(
            f"seconds must be positive, got {seconds!r}: a zero-length "
            "measurement window makes every throughput/occupancy figure "
            "a division by zero"
        )
    if warmup_seconds < 0:
        raise ValueError(
            f"warmup_seconds must be >= 0, got {warmup_seconds!r}"
        )
    if not isinstance(rates, dict):
        rates = {f"n{i + 1}": r for i, r in enumerate(rates)}
    stations = tuple(
        StationSpec(name, rate_mbps=rate) for name, rate in rates.items()
    )
    if transport == "tcp":
        flows = tuple(
            FlowSpec(station=name, kind="tcp", direction=direction)
            for name in rates
        )
    else:
        flows = tuple(
            FlowSpec(
                station=name, kind="udp", direction=direction,
                rate_mbps=udp_rate_mbps,
            )
            for name in rates
        )
    return ScenarioSpec(
        name=f"competing/{scheduler}/{transport}-{direction}",
        scheduler=scheduler,
        tbr_config=tbr_config,
        phy=phy,
        stations=stations,
        flows=flows,
        seconds=seconds,
        warmup_seconds=warmup_seconds,
        seed=seed,
    )


def run_competing(
    rates: Union[Dict[str, float], Sequence[float]], **setup
) -> ScenarioResult:
    """Run n stations with one bulk flow each and measure the paper's
    quantities (per-station goodput and channel occupancy).

    ``setup`` is :func:`competing_spec`'s keywords; the spec is compiled
    and run by :func:`repro.scenario.runner.run_spec` like any other.
    """
    return run_spec(competing_spec(rates, **setup))


def competing_job(
    experiment: str,
    key,
    rates: Union[Dict[str, float], Sequence[float]],
    **setup,
) -> Job:
    """One :func:`run_competing` call as a campaign job — a plain
    :func:`~repro.scenario.runner.scenario_job`, so a figure's run is
    the store entry ``repro scenario`` / ``repro serve`` would hit for
    the same spec."""
    return scenario_job(
        competing_spec(rates, **setup), experiment=experiment, key=key
    )


# ----------------------------------------------------------------------
# phased occupancy (the fairness-churn / fairness-outage reduction)
# ----------------------------------------------------------------------
#: The AP schedulers each fairness experiment contrasts.
SCHEDULERS = ("fifo", "tbr")
#: A phase share within this distance of 1/n_active counts as fair.
SHARE_TOLERANCE = 0.12
#: Width of the convergence probe window, in FILLEVENTs.
CONVERGE_WINDOW_FILLS = 25


def family_jobs(
    family: str, executor: str, seed: int, seconds: float
) -> List[Job]:
    """One job per AP scheduler, run by ``executor`` over the scenario
    family's spec.  The frozen spec IS the job config (like
    ``scenario_job``): its content digest covers every knob, including
    the family defaults resolved here at job-build time."""
    return [
        make_job(
            family, scheduler, executor,
            {
                "spec": build_spec(
                    family, scheduler=scheduler, seed=seed, seconds=seconds
                )
            },
        )
        for scheduler in SCHEDULERS
    ]


def shares(occupancy: Mapping[str, float]) -> Dict[str, float]:
    """Each station's fraction of the airtime in ``occupancy``."""
    total = sum(occupancy.values())
    if total <= 0:
        return {station: 0.0 for station in occupancy}
    return {station: used / total for station, used in occupancy.items()}


def phased_occupancy(
    spec: ScenarioSpec,
    cuts_us: Sequence[float],
    probe_us: Tuple[float, float],
    probed: Sequence[str],
) -> Tuple[List[Dict[str, float]], Optional[int]]:
    """Run ``spec`` keeping its usage records, and reduce them by phase.

    ``cuts_us`` are the ascending times that cut the run into
    ``len(cuts_us) + 1`` phases; the first return value is each phase's
    station -> attributed airtime (us).  The second is how many
    FILLEVENTs after ``probe_us[0]`` the ``probed`` stations took to
    share the channel fairly: contiguous windows of
    ``CONVERGE_WINDOW_FILLS`` fill intervals are walked up to
    ``probe_us[1]``, and the first in which every probed station's share
    is within ``SHARE_TOLERANCE`` of ``1 / len(probed)`` counts
    (``None`` when none does).  FILLEVENT units are used under every
    scheduler so the columns compare.
    """
    runtime = ScenarioRuntime(spec)
    usage = runtime.cell.usage
    usage.keep_records = True
    runtime.run()

    occupancy: List[Dict[str, float]] = [
        {station.name: 0.0 for station in spec.stations}
        for _ in range(len(cuts_us) + 1)
    ]
    for record in usage.records:
        occupancy[bisect_right(cuts_us, record.time)][
            record.station
        ] += record.airtime_us

    start_us, end_us = probe_us
    fill_us = (spec.tbr_config or TbrConfig()).fill_interval_us
    window_us = CONVERGE_WINDOW_FILLS * fill_us
    fair = 1.0 / len(probed)
    window = 1
    while start_us + window * window_us <= end_us:
        lo = start_us + (window - 1) * window_us
        hi = lo + window_us
        in_window = {station: 0.0 for station in probed}
        for record in usage.records:
            if lo <= record.time < hi and record.station in in_window:
                in_window[record.station] += record.airtime_us
        share = shares(in_window)
        if all(abs(share[s] - fair) <= SHARE_TOLERANCE for s in probed):
            return occupancy, window * CONVERGE_WINDOW_FILLS
        window += 1
    return occupancy, None


def render_phase_shares(
    title: str,
    phases: Sequence[str],
    phase_shares: Mapping[str, Mapping[str, float]],
    fair_row: Sequence[str],
    after: str,
    converge_fills: Optional[int],
) -> str:
    """One run's station x phase share table, a ``1/n_active`` row of
    ``fair_row`` under it, and the convergence line (``after``: the
    event the shares re-converge after)."""
    rows = [
        [station]
        + [fmt_frac(phase_shares[p].get(station, 0.0)) for p in phases]
        for station in sorted(phase_shares[phases[0]])
    ]
    rows.append(["1/n_active", *fair_row])
    table = fmt_table(["station", *phases], rows, title=title)
    if converge_fills is None:
        return (
            f"{table}\npost-{after} shares never settled within "
            f"{SHARE_TOLERANCE:g} of 1/n_active"
        )
    return (
        f"{table}\npost-{after} shares within {SHARE_TOLERANCE:g} of "
        f"1/n_active after {converge_fills} FILLEVENTs"
    )


# ----------------------------------------------------------------------
# rendering helpers (``fmt_table`` lives beside ``render_result``)
# ----------------------------------------------------------------------
def fmt_mbps(value: float) -> str:
    return f"{value:.3f}"


def fmt_frac(value: float) -> str:
    return f"{value:.3f}"
