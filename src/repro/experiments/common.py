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

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union,
)

from repro.campaign.job import Job
from repro.core.tbr import TbrConfig
from repro.phy.phy import DOT11B_LONG_PREAMBLE, PhyParams
from repro.scenario.registry import build_spec
from repro.scenario.runner import (
    ScenarioResult,
    fmt_table,
    run_spec,
    scenario_job,
)
from repro.scenario.spec import FlowSpec, ScenarioSpec, StationSpec


def check_seconds(seconds: float) -> None:
    """Reject a measurement window no run can measure over: a
    non-positive one divides every figure by zero, and a run over a
    non-finite one never returns."""
    if not (math.isfinite(seconds) and seconds > 0):
        raise ValueError(
            f"seconds must be positive and finite, got {seconds!r}: a "
            "zero-length measurement window makes every throughput/"
            "occupancy figure a division by zero, and an endless one "
            "never returns"
        )


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
    divides by it (:func:`check_seconds`).
    """
    if transport not in ("tcp", "udp"):
        raise ValueError(f"unknown transport {transport!r}")
    check_seconds(seconds)
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


def probe_edges(
    spec: ScenarioSpec, start_us: float, end_us: float
) -> Tuple[float, ...]:
    """Edges of the contiguous ``CONVERGE_WINDOW_FILLS``-FILLEVENT
    windows from ``start_us`` up to ``end_us``, at the spec's fill
    interval (TBR's default under every scheduler, so the FILLEVENT
    columns compare)."""
    fill_us = (spec.tbr_config or TbrConfig()).fill_interval_us
    window_us = CONVERGE_WINDOW_FILLS * fill_us
    edges = [start_us]
    while start_us + len(edges) * window_us <= end_us:
        edges.append(start_us + len(edges) * window_us)
    return tuple(edges)


@dataclass(frozen=True)
class Phases:
    """How a phased run is cut and probed: ``cuts_us`` (ascending) cut
    it into ``len(cuts_us) + 1`` phases, and the probe walks the windows
    between consecutive ``probe_us`` edges (:func:`probe_edges`) for the
    first in which every ``probed`` station's share is within
    ``SHARE_TOLERANCE`` of ``1 / len(probed)``."""

    cuts_us: Tuple[float, ...]
    probe_us: Tuple[float, ...]
    probed: Tuple[str, ...]

    def windows_us(self) -> Tuple[float, ...]:
        """The run's window cuts: the phase cuts and the probe edges."""
        return tuple(sorted({*self.cuts_us, *self.probe_us}))

    def reduce(
        self, windows: Sequence[Mapping[str, float]]
    ) -> Tuple[List[Dict[str, float]], Optional[int]]:
        """Each phase's station -> airtime (us), summed from the
        ``windows`` of a run cut at :meth:`windows_us`, and the
        FILLEVENTs the probe took to find a fair window (``None``:
        none is)."""
        starts = (-math.inf, *self.windows_us())
        n_phases = len(self.cuts_us) + 1
        phases = [dict.fromkeys(windows[0], 0.0) for _ in range(n_phases)]
        for start, window in zip(starts, windows):
            phase = phases[bisect_right(self.cuts_us, start)]
            for station, used in window.items():
                phase[station] += used
        index = {start: i for i, start in enumerate(starts)}
        fair = 1.0 / len(self.probed)
        for n, start in enumerate(self.probe_us[:-1], start=1):
            window = windows[index[start]]
            share = shares({s: window[s] for s in self.probed})
            if all(abs(v - fair) <= SHARE_TOLERANCE for v in share.values()):
                return phases, n * CONVERGE_WINDOW_FILLS
        return phases, None


def family_jobs(
    family: str, seed: int, seconds: float,
    phases_of: Callable[[ScenarioSpec], Phases],
) -> List[Job]:
    """One scenario job per AP scheduler over the scenario family's
    spec, windowed where ``phases_of(spec)`` cuts it.  The frozen spec
    and cuts ARE the job config: the digest covers every knob,
    including the family defaults resolved here at job-build time."""
    specs = [
        build_spec(family, scheduler=scheduler, seed=seed, seconds=seconds)
        for scheduler in SCHEDULERS
    ]
    return [
        scenario_job(
            spec, experiment=family, key=spec.scheduler,
            windows_us=phases_of(spec).windows_us(),
        )
        for spec in specs
    ]


@dataclass
class PhasedResult:
    """A fairness family's reduced runs, by AP scheduler."""

    runs: Dict[str, Any]

    @property
    def tbr(self) -> Any:
        return self.runs["tbr"]


def family_phases(
    family: str, results: Mapping[str, ScenarioResult],
    phases_of: Callable[[ScenarioSpec], Phases],
) -> Dict[str, Tuple[ScenarioSpec, List[Dict[str, float]], Optional[int]]]:
    """scheduler -> (spec, each phase's airtime, converge_fills) of the
    runs :func:`family_jobs` built, each spec rebuilt from its result's
    seed and seconds as the jobs built it."""
    reduced = {}
    for scheduler in SCHEDULERS:
        result = results[scheduler]
        spec = build_spec(
            family, scheduler=scheduler, seed=result.seed,
            seconds=result.seconds,
        )
        reduced[scheduler] = (spec, *phases_of(spec).reduce(result.windows))
    return reduced


def shares(occupancy: Mapping[str, float]) -> Dict[str, float]:
    """Each station's fraction of the airtime in ``occupancy``."""
    total = sum(occupancy.values())
    if total <= 0:
        return {station: 0.0 for station in occupancy}
    return {station: used / total for station, used in occupancy.items()}


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
