"""Compile a campus :class:`~repro.scenario.spec.ScenarioSpec`.

The ESS twin of :class:`repro.scenario.builder.ScenarioRuntime`: cells
are created in spec order (each station followed immediately by its
flows, the same boring sequence the single-cell builder pins), the
adjacency is wired, and the timeline is scheduled on the shared kernel
at category ``OTHER``.

Roam semantics (:class:`~repro.scenario.spec.RoamEvent`): at ``at_s``
the station's sources are quiesced and the *source* cell tears it down
through the ordinary disassociate path — queue flushed back to the
pool, TBR bucket retired with its rate redistributed, MAC detached.
``delay_s`` later (association latency; builder machinery, not a
timeline event) a fresh station object associates in the destination
cell — new MAC state, new queue, and under TBR one fresh ``T_init``
grant — and the station's spec'd flows restart under ``@r<n>``
identities, sharing the rejoin sequence so leave/rejoin and roam cycles
never collide on a flow name.

Leave/rejoin/rate-switch/traffic events resolve the station's *current*
cell through the campus membership map, so they follow a roamer around.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.campus.core import Campus
from repro.node.cell import FlowHandle
from repro.scenario.builder import ScenarioRuntime
from repro.scenario.spec import (
    FlowSpec,
    LeaveEvent,
    RateSwitchEvent,
    RejoinEvent,
    RoamEvent,
    ScenarioSpec,
    StationSpec,
    TrafficOffEvent,
    TrafficOnEvent,
)
from repro.sim import EventCategory, us_from_s


class CampusRuntime:
    """A compiled campus scenario: cells, membership and the timeline.

    Mirrors :class:`~repro.scenario.builder.ScenarioRuntime`'s contract
    (``run()``, ``timeline_fired``, ``pool_leaked()``,
    ``station_rates_mbps()``) so the scenario runner can drive either.
    ``sanitize``/``fast_forward`` default to the same environment
    switches; fast-forward *inhibits* on campus workloads — nothing yet
    certifies one cell of a coupled campus as a root for the steady-state
    walker — so flagged runs are byte-identical to unflagged ones.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        *,
        sanitize: Optional[bool] = None,
        fast_forward: Optional[bool] = None,
    ) -> None:
        spec.validate()
        if spec.campus is None:
            raise ValueError("CampusRuntime needs a spec with a campus")
        self.spec = spec
        if sanitize is None:
            from repro.sim.sanitizer import sanitize_enabled

            sanitize = sanitize_enabled()
        self.sanitize = sanitize
        self.sanitizer = None
        if fast_forward is None:
            from repro.sim.steady import fastforward_enabled

            fast_forward = fastforward_enabled()
        #: recorded for reporting; the engine never engages (inhibit-by-
        #: construction keeps flagged campus runs byte-identical).
        self.fast_forward = fast_forward
        self.campus = Campus(
            seed=spec.seed,
            scheduler=spec.scheduler,
            tbr_config=spec.tbr_config,
            phy=spec.phy,
        )
        single = len(spec.campus.cells) == 1
        self._active: Dict[str, List[FlowHandle]] = {}
        self._spec_flows: Dict[str, List[FlowSpec]] = {}
        self._station_specs: Dict[str, StationSpec] = {}
        #: station -> the cell it last associated in (rejoin target).
        self._last_cells: Dict[str, str] = {}
        self._burst_seq: Dict[str, int] = {}
        self._rejoin_seq: Dict[str, int] = {}
        self._departed: Set[str] = set()
        self.timeline_fired = 0
        self.roams_fired = 0

        for cell_spec in spec.campus.cells:
            self.campus.add_cell(
                cell_spec.name,
                channel=cell_spec.channel,
                ap_address=(
                    cell_spec.ap_address
                    if cell_spec.ap_address is not None
                    # One lone cell keeps the canonical "ap" address so
                    # the campus path stays byte-identical to the plain
                    # single-cell path (the address names the AP MAC's
                    # RNG stream).
                    else ("ap" if single else f"ap@{cell_spec.name}")
                ),
            )
            for station in cell_spec.stations:
                self._add_station(
                    cell_spec.name,
                    station,
                    [
                        f
                        for f in cell_spec.flows
                        if f.station == station.name
                    ],
                )
        for a, b in spec.campus.adjacency:
            self.campus.connect(a, b)
        # Stable sort: simultaneous events fire in spec order.
        for event in sorted(spec.timeline, key=lambda e: e.at_s):
            self.campus.sim.schedule(
                us_from_s(event.at_s),
                self._fire,
                event,
                category=EventCategory.OTHER,
            )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _add_station(
        self,
        cell_name: str,
        station: StationSpec,
        flows: List[FlowSpec],
        suffix: str = "",
    ) -> None:
        self.campus.add_station(
            cell_name,
            station.name,
            rate_mbps=station.rate_mbps,
            downlink_rate_mbps=station.downlink_rate_mbps,
            queue_capacity=station.queue_capacity,
            cooperate_with_tbr=station.cooperate_with_tbr,
        )
        self._station_specs[station.name] = station
        self._spec_flows[station.name] = list(flows)
        self._last_cells[station.name] = cell_name
        self._active[station.name] = []
        for flow, name in zip(
            flows, ScenarioRuntime._flow_names(flows, suffix)
        ):
            self._start_flow(flow, name=name)

    def _start_flow(
        self, flow: FlowSpec, name: Optional[str] = None
    ) -> FlowHandle:
        cell = self.campus.cell_of(flow.station)
        station = cell.stations[flow.station]
        if flow.kind == "tcp":
            handle = cell.tcp_flow(
                station,
                direction=flow.direction,
                app=flow.app,
                task_bytes=flow.task_bytes,
                paced_mbps=flow.rate_mbps if flow.app == "paced" else None,
                name=name,
            )
        else:
            handle = cell.udp_flow(
                station,
                direction=flow.direction,
                rate_mbps=flow.rate_mbps,
                payload_bytes=flow.payload_bytes,
                name=name,
            )
        self._active[flow.station].append(handle)
        return handle

    # ------------------------------------------------------------------
    # timeline execution
    # ------------------------------------------------------------------
    def _fire(self, event) -> None:
        self.timeline_fired += 1
        if isinstance(event, RoamEvent):
            self._roam(event)
        elif isinstance(event, LeaveEvent):
            self._leave(event.station)
        elif isinstance(event, RejoinEvent):
            self._rejoin(event.station)
        elif isinstance(event, RateSwitchEvent):
            self._switch_rate(event)
        elif isinstance(event, TrafficOffEvent):
            self._quiesce_station(event.station)
        elif isinstance(event, TrafficOnEvent):
            self._burst_on(event.station)
        else:  # pragma: no cover - spec.validate() rejects other kinds
            raise TypeError(f"unknown campus timeline event {event!r}")

    def _roam(self, event: RoamEvent) -> None:
        """Disassociate from the source cell now; land later."""
        self.roams_fired += 1
        name = event.station
        self._quiesce_station(name)
        self.campus.remove_station(name)
        # The landing is builder machinery (like an outage recovery):
        # it rides category OTHER but does not count as timeline_fired.
        self.campus.sim.schedule(
            us_from_s(event.delay_s),
            self._land,
            name,
            event.to_cell,
            category=EventCategory.OTHER,
        )

    def _land(self, name: str, to_cell: str) -> None:
        """Associate ``name`` in ``to_cell`` with fresh flow identities."""
        seq = self._rejoin_seq.get(name, 0) + 1
        self._rejoin_seq[name] = seq
        spec = self._station_specs[name]
        flows = self._spec_flows.get(name, [])
        self._add_station(to_cell, spec, flows, suffix=f"@r{seq}")

    def _leave(self, name: str) -> None:
        self._quiesce_station(name)
        self._departed.add(name)
        self.campus.remove_station(name)

    def _rejoin(self, name: str) -> None:
        """Revive a departed station into the cell it last occupied.

        Campus membership was already popped on leave, so the landing
        cell is the spec-validated ``last_cell`` — which the runtime
        tracks implicitly: validation guarantees the rejoin follows the
        membership history, so we replay it from ``_last_cell``."""
        self._departed.discard(name)
        cell_name = self._last_cells[name]
        seq = self._rejoin_seq.get(name, 0) + 1
        self._rejoin_seq[name] = seq
        spec = self._station_specs[name]
        flows = self._spec_flows.get(name, [])
        self._add_station(cell_name, spec, flows, suffix=f"@r{seq}")

    def _quiesce_station(self, name: str) -> None:
        for handle in self._active.get(name, ()):
            ScenarioRuntime._quiesce_flow(handle)
        self._active[name] = []

    def _switch_rate(self, event: RateSwitchEvent) -> None:
        from repro.node.rate_control import FixedRate

        cell = self.campus.cell_of(event.station)
        station = cell.stations[event.station]
        controller = station.rate_controller
        if not isinstance(controller, FixedRate):
            raise TypeError(
                f"rate switch for {event.station!r} needs a FixedRate "
                f"controller, found {type(controller).__name__}"
            )
        controller.default_mbps = event.rate_mbps
        controller.table.clear()
        downlink = (
            event.downlink_rate_mbps
            if event.downlink_rate_mbps is not None
            else event.rate_mbps
        )
        cell.ap.set_downlink_rate(event.station, downlink)

    def _burst_on(self, name: str) -> None:
        if name in self._departed or name not in self.campus.membership:
            return
        self._quiesce_station(name)
        seq = self._burst_seq.get(name, 0) + 1
        self._burst_seq[name] = seq
        flows = self._spec_flows.get(name, [])
        for flow, flow_name in zip(
            flows, ScenarioRuntime._flow_names(flows, suffix=f"@{seq}")
        ):
            self._start_flow(flow, name=flow_name)

    # ------------------------------------------------------------------
    # running and reporting
    # ------------------------------------------------------------------
    def run(self) -> None:
        if self.sanitize and self.sanitizer is None:
            from repro.campus.sanitizer import CampusSanitizer

            self.sanitizer = CampusSanitizer(self.campus, self).install()
        try:
            self.campus.run(
                seconds=self.spec.seconds,
                warmup_seconds=self.spec.warmup_seconds,
            )
        finally:
            if self.sanitizer is not None:
                self.sanitizer.uninstall()
        if self.sanitizer is not None:
            self.sanitizer.finalize()

    def pool_leaked(self) -> int:
        """Summed end-of-run pooled-packet leak across every cell."""
        from repro.sim.sanitizer import pool_leak

        return sum(
            pool_leak(cell) for cell in self.campus.cells.values()
        )

    def station_rates_mbps(self) -> Dict[str, float]:
        rates: Dict[str, float] = {}
        for cell in self.campus.cells.values():
            for name, station in cell.stations.items():
                rates[name] = station.rate_controller.rate_for(
                    station.ap_address
                )
        return rates
