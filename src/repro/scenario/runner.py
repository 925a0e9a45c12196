"""Run scenario specs — serially or as cached campaign jobs.

``run_spec`` compiles and runs one spec in-process and collects the
paper's quantities (per-station goodput, channel occupancy) plus the
kernel's event accounting, so every scenario family doubles as a perf
probe.  ``scenario_job`` wraps a spec as a campaign
:class:`~repro.campaign.job.Job` — the spec *is* the job config — so
sweeps fan out across worker processes and land in the on-disk result
cache exactly like the figure/table reproductions — windowed runs too,
whose per-window airtime is part of the stored result.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence

from repro.campaign.job import Job, make_job
from repro.channel.medium import UsageRecord
from repro.scenario.builder import ScenarioRuntime
from repro.scenario.spec import ScenarioSpec

#: Executor address for :func:`execute_scenario` (what workers import).
SCENARIO_EXECUTOR = "repro.scenario.runner:execute_scenario"


@dataclass
class ScenarioResult:
    """Outcome of one scenario run (picklable, render-stable)."""

    name: str
    seed: int
    scheduler: str
    seconds: float
    warmup_seconds: float
    #: goodput per station over the measurement window (Mbps).
    throughput_mbps: Dict[str, float] = field(default_factory=dict)
    #: per-flow goodput (burst flows appear under ``name@<n>``).
    flow_throughput_mbps: Dict[str, float] = field(default_factory=dict)
    #: fraction of measured time each station occupied the channel.
    occupancy: Dict[str, float] = field(default_factory=dict)
    #: uplink rate per station after the timeline ran (Mbps).
    final_rates_mbps: Dict[str, float] = field(default_factory=dict)
    timeline_fired: int = 0
    events_executed: int = 0
    events_by_category: Dict[str, int] = field(default_factory=dict)
    #: end-of-run PacketPool conservation remainder — 0 on a healthy
    #: run (every pooled packet recycled or still legitimately queued /
    #: in flight).  Deliberately absent from :func:`render_result`, so
    #: existing goldens stay byte-identical.
    pool_leaked: int = 0
    #: steady-state fast-forward jumps taken and simulated seconds
    #: skipped (0 unless the run was fast-forwarded; not rendered, so
    #: goldens — and cached results pickled before the field existed —
    #: stay stable).
    fast_forwards: int = 0
    fast_forwarded_s: float = 0.0
    #: campus runs only (all default-empty so single-cell results —
    #: including cached pickles from before the fields existed — are
    #: untouched): end-of-run membership per cell, the cells' RF
    #: channels, per-cell occupancy fractions, per-cell medium busy
    #: fractions, and the number of roam events fired.
    cell_members: Dict[str, Any] = field(default_factory=dict)
    cell_channels: Dict[str, int] = field(default_factory=dict)
    cell_occupancy: Dict[str, Dict[str, float]] = field(
        default_factory=dict
    )
    cell_busy_fraction: Dict[str, float] = field(default_factory=dict)
    roams_fired: int = 0
    #: windowed runs only: station -> attributed airtime (us) over
    #: ``(-inf, c1), [c1, c2) ... [ck, +inf)`` for cuts ``windows_us``.
    #: Immutable default: pickles from before the field still load.
    windows: tuple = ()

    @property
    def total_mbps(self) -> float:
        return sum(self.throughput_mbps.values())


def windowed_occupancy(
    records: Iterable[UsageRecord],
    edges_us: Sequence[float],
    stations: Sequence[str],
) -> List[Dict[str, float]]:
    """Bucket usage ``records`` by the half-open windows ``[edges_us[i],
    edges_us[i + 1])``: one station -> attributed airtime (us) dict per
    window, over ``stations`` in their order (0.0 for an idle one).

    ``edges_us`` ascend; one ``bisect`` per record places it, so a
    record stamped exactly on an edge counts in the later window.
    Records before the first edge, at or past the last, or of a station
    not in ``stations`` count nowhere.
    """
    windows = [dict.fromkeys(stations, 0.0) for _ in edges_us[1:]]
    for record in records:
        index = bisect_right(edges_us, record.time) - 1
        if 0 <= index < len(windows) and record.station in windows[index]:
            windows[index][record.station] += record.airtime_us
    return windows


def run_spec(
    spec: ScenarioSpec,
    *,
    sanitize: Optional[bool] = None,
    fast_forward: Optional[bool] = None,
    windows_us: Sequence[float] = (),
) -> ScenarioResult:
    """Compile, run and measure one scenario spec.

    ``sanitize=True`` runs under the runtime sanitizer
    (:mod:`repro.sim.sanitizer`; :mod:`repro.campus.sanitizer` on
    several cells); ``fast_forward=True`` runs through the steady-state
    fast-forward engine (:mod:`repro.sim.steady`).  Either ``None``
    defers to the matching environment switch (``REPRO_SANITIZE`` /
    ``REPRO_FASTFWD``), which is how campaign worker processes inherit
    the settings.

    Station-keyed figures merge across cells — station names are
    campus-unique, and a roamer's airtime in every cell it visited sums
    under its one name.  The ``cell_*`` fields and ``roams_fired`` keep
    the per-cell view, and are filled only when the spec has a
    ``campus`` section: a plain spec's result stays field for field
    what it always was (cached pickles, ``==``).

    ``windows_us`` (ascending cut times, a single-cell spec only) fills
    :attr:`ScenarioResult.windows` from the cell's usage records, which
    are kept only then.
    """
    if windows_us and spec.campus is not None:
        raise ValueError("windows_us needs a single-cell spec")
    runtime = ScenarioRuntime(
        spec, sanitize=sanitize, fast_forward=fast_forward
    )
    campus = runtime.campus
    sim = campus.sim
    if windows_us:
        channel = runtime.cell.channel
        channel.records = []
    runtime.run()
    result = ScenarioResult(
        name=spec.name,
        seed=spec.seed,
        scheduler=spec.scheduler,
        seconds=spec.seconds,
        warmup_seconds=spec.warmup_seconds,
        throughput_mbps=campus.station_throughputs_mbps(),
        flow_throughput_mbps=campus.throughputs_mbps(),
        occupancy=campus.occupancy_fractions(),
        final_rates_mbps=runtime.station_rates_mbps(),
        timeline_fired=runtime.timeline_fired,
        events_executed=sim.events_executed,
        events_by_category=sim.events_by_category(),
        pool_leaked=runtime.pool_leaked(),
        fast_forwards=sim.fast_forwards,
        fast_forwarded_s=sim.fast_forwarded_us / 1e6,
    )
    if spec.campus is not None:
        result.cell_members = {
            name: sorted(members)
            for name, members in campus.cell_members().items()
        }
        result.cell_channels = dict(campus.channel_map)
        result.cell_occupancy = campus.cell_occupancy_fractions()
        result.cell_busy_fraction = campus.cell_busy_fractions()
        result.roams_fired = runtime.roams_fired
    if windows_us:
        # Spec order first; a station that joined mid-run follows.
        names = [s.name for s in spec.stations]
        names += dict.fromkeys(r.station for r in channel.records)
        edges_us = (-math.inf, *windows_us, math.inf)
        windows = windowed_occupancy(channel.records, edges_us, names)
        result.windows = tuple(windows)
    return result


# ----------------------------------------------------------------------
# campaign integration — the spec is the job config
# ----------------------------------------------------------------------
def execute_scenario(params: Dict[str, Any]) -> ScenarioResult:
    """Job executor: ``params`` are :func:`run_spec`'s arguments (the
    thawed ScenarioSpec, and ``windows_us`` for a windowed run)."""
    spec = params["spec"]
    if not isinstance(spec, ScenarioSpec):
        raise TypeError(
            f"scenario job params must carry a ScenarioSpec, "
            f"got {type(spec).__name__}"
        )
    return run_spec(**params)


def scenario_job(
    spec: ScenarioSpec,
    *,
    experiment: str = "scenario",
    key: Optional[Hashable] = None,
    windows_us: Sequence[float] = (),
) -> Job:
    """Describe one :func:`run_spec` call as a campaign job.

    The job's cache digest covers the full spec content, so editing any
    knob — a rate, a timeline timestamp, the scheduler — invalidates
    exactly that scenario and nothing else.  ``windows_us`` joins the
    params only when given, so a plain job's params are exactly
    ``{"spec": spec}`` and its digest what it always was.
    """
    params: Dict[str, Any] = {"spec": spec}
    if windows_us:
        params["windows_us"] = tuple(windows_us)
    return make_job(
        experiment,
        spec.name if key is None else key,
        SCENARIO_EXECUTOR,
        params,
    )


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def fmt_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Fixed-width ASCII table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines: List[str] = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_result(result: ScenarioResult) -> str:
    """ASCII summary: per-station table plus kernel accounting."""
    rows = []
    for name in sorted(result.throughput_mbps):
        rows.append(
            [
                name,
                f"{result.final_rates_mbps.get(name, 0.0):g}",
                f"{result.throughput_mbps[name]:.3f}",
                f"{result.occupancy.get(name, 0.0):.3f}",
            ]
        )
    rows.append(["total", "", f"{result.total_mbps:.3f}", ""])
    table = fmt_table(
        ["station", "rate(end)", "Mbps", "occupancy"],
        rows,
        title=(
            f"Scenario {result.name} (seed {result.seed}, "
            f"{result.scheduler}): {result.seconds:g} s measured after "
            f"{result.warmup_seconds:g} s warm-up"
        ),
    )
    categories = ", ".join(
        f"{key}={result.events_by_category.get(key, 0)}"
        for key in ("traffic", "mac", "phy", "timer", "other")
    )
    rendered = (
        f"{table}\n"
        f"timeline events fired: {result.timeline_fired}\n"
        f"kernel events: {result.events_executed} ({categories})"
    )
    # The per-cell block appears only for a real (>= 2 cell) campus: a
    # 1-cell campus must render byte-identical to the single-cell path
    # (the differential equivalence contract).
    if len(result.cell_members) >= 2:
        lines = [f"campus: {len(result.cell_members)} cells, "
                 f"{result.roams_fired} roams"]
        for cell in result.cell_members:
            members = ",".join(result.cell_members[cell]) or "-"
            occupancy = result.cell_occupancy.get(cell, {})
            occupied = " ".join(
                f"{name}={occupancy[name]:.3f}"
                for name in sorted(occupancy)
            ) or "-"
            lines.append(
                f"  cell {cell} [ch {result.cell_channels.get(cell, '?')}]"
                f" members={members} occupancy: {occupied}"
            )
        rendered += "\n" + "\n".join(lines)
    return rendered
