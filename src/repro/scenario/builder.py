"""Compile a :class:`~repro.scenario.spec.ScenarioSpec` into live cells.

The builder is the *only* way specs touch the simulator — plain and
campus specs alike: a spec without a ``campus`` section is one implicit
cell (AP address ``"ap"``) holding ``spec.stations`` / ``spec.flows``,
so cell *k* of N is compiled by exactly the code that compiles the
paper's lone cell.  It is deliberately boring, and the order is the
byte-identity contract: per cell, in spec order, the cell, then the
reaper if any, then each station followed immediately by its flows in
spec order — exactly the construction sequence the pre-scenario
experiment code used, which is what keeps the fig/table goldens
byte-identical now that
:func:`repro.experiments.common.run_competing` goes through here —
then the adjacency once every cell exists, and the timeline last.

Timeline events are scheduled up front (category ``OTHER``, so they
show up as their own line in the kernel's event accounting) and fire
inside the run:

* **join** — ``Cell.add_station`` plus the event's flows, mid-air; the
  paper's ASSOCIATEEVENT path handles mid-run association (TBR grants
  the initial token allotment at that moment).
* **leave** — true disassociation: sources are quiesced (UDP stops,
  TCP applications are clamped at the bytes already handed to the
  network), then ``Cell.remove_station`` tears down MAC state, channel
  subscriptions, the AP-side queue (flushing queued packets back to
  the pool) and — under TBR — the token bucket, whose rate is
  redistributed to the remaining stations.
* **rejoin** — the departed station's original spec is revived as a
  fresh association (new MAC, new queue, one new ``T_init`` grant
  under TBR) and its flows restart under ``@r<n>`` identities, so
  every rejoin draws from its own named RNG streams.
* **traffic off** — the station's sources are *quiesced* only: nothing
  new is offered, in-flight data drains normally, and the association
  (queue, tokens, subscriptions) stays alive.
* **rate switch** — the station's ``FixedRate`` controller and the
  AP's downlink rate toward it are repointed; the next MAC exchange
  uses the new rate, like a NIC stepping its modulation.
* **traffic on** — the station's spec'd flows are re-instantiated
  under fresh ``name@<burst>`` identities, so every burst gets its own
  named RNG stream and the run stays deterministic end to end.
* **channel degrade** — a loss model (Bernoulli cell-wide, or per-link
  between one station and the AP) is installed for the event's window
  and the prior model restored when it closes; the burst RNG is seeded
  from the spec seed and the burst ordinal, so degraded runs replay
  byte-identically.  Overlapping windows stack: each close re-exposes
  the newest still-open window's model (or the base model), whether
  the windows nest or interleave.
* **ap outage** — every associated station is torn down through the
  leave path (an AP that died cannot serve anyone), then the AP's MAC
  shuts down with its in-flight frame aborted on the air.  Recovery
  ``duration_s`` later restarts the MAC and schedules each survivor's
  rejoin after an individual spec-seeded jitter delay — the ordinary
  rejoin machinery, so TBR grants ``T_init`` exactly once per rejoin.
* **station crash** — the station vanishes without disassociating:
  its uplink sources are quiesced (a dead station sends nothing) but
  its *downlink* flows keep offering traffic, and no AP-side state is
  torn down — the retry-exhaustion storm toward the silent peer is
  what arms the inactivity reaper (``spec.reaper``), which then drives
  the ordinary disassociate path.  Without a reaper the stranded token
  rate persists, which the runtime sanitizer's live-share invariant
  flags.
* **roam** — at ``at_s`` the *source* cell tears the station down
  through the leave path (sources quiesced, queue flushed back to the
  pool, TBR bucket retired with its rate redistributed, MAC detached);
  ``delay_s`` later (association latency; builder machinery, not a
  timeline event) the rejoin path associates a fresh station object in
  the *destination* cell.  Roam landings and rejoins share the
  ``@r<n>`` sequence, so leave/rejoin and roam cycles never collide on
  a flow name.

Station-targeted events resolve the station's *current* cell through
the campus membership map, so they follow a roamer around; join,
degrade and outage address the lone cell (``spec.validate()`` keeps
them, crashes and the reaper out of campus specs — single-cell
semantics the ESS layer does not define yet).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.campus.core import Campus
from repro.campus.sanitizer import CampusSanitizer
from repro.channel.loss import BernoulliLoss, PerLinkLoss
from repro.node.access_point import ReaperConfig
from repro.node.cell import Cell, FlowHandle
from repro.node.rate_control import FixedRate
from repro.scenario.spec import (
    ApOutageEvent,
    CampusSpec,
    CellSpec,
    ChannelDegradeEvent,
    FlowSpec,
    JoinEvent,
    LeaveEvent,
    RateSwitchEvent,
    RejoinEvent,
    RoamEvent,
    ScenarioSpec,
    StationCrashEvent,
    StationSpec,
    TrafficOffEvent,
    TrafficOnEvent,
)
from repro.sim import EventCategory, us_from_s
from repro.sim.sanitizer import RuntimeSanitizer, pool_leak, sanitize_enabled
from repro.sim.steady import FastForwardEngine, fastforward_enabled
from repro.transport.apps import PacedApp


def _campus_spec(spec: ScenarioSpec) -> CampusSpec:
    """The campus ``spec`` describes: its own, or — for a plain spec —
    one implicit cell holding the top-level stations and flows."""
    if spec.campus is not None:
        return spec.campus
    return CampusSpec(
        cells=(
            CellSpec(name="cell", stations=spec.stations, flows=spec.flows),
        )
    )


class ScenarioRuntime:
    """A compiled scenario: the campus (:attr:`campus`; one cell for a
    plain spec, reachable as :attr:`cell`) plus the timeline machinery.

    ``sanitize`` arms the runtime invariant sanitizer for this run —
    :class:`~repro.sim.sanitizer.RuntimeSanitizer` on one cell,
    :class:`~repro.campus.sanitizer.CampusSanitizer` (the same per-cell
    checks plus the cross-cell ones) on several; ``None`` (the default)
    defers to the ``REPRO_SANITIZE`` environment switch.  Sanitized
    runs execute the identical event sequence — the sanitizer only
    observes — so results stay byte-identical either way.

    ``fast_forward`` arms the steady-state fast-forward engine
    (:mod:`repro.sim.steady`); ``None`` defers to ``REPRO_FASTFWD``.
    It is a *runtime* flag, not part of the spec — content digests and
    campaign cache keys are unchanged, because the results must agree
    either way (byte-identically whenever the detector inhibits — which
    it always does on more than one cell — within printed precision on
    certified steady stretches).
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        *,
        sanitize: Optional[bool] = None,
        fast_forward: Optional[bool] = None,
    ) -> None:
        spec.validate()
        self.spec = spec
        if sanitize is None:
            sanitize = sanitize_enabled()
        self.sanitize = sanitize
        self.sanitizer = None
        if fast_forward is None:
            fast_forward = fastforward_enabled()
        self.fast_forward = fast_forward
        self.ff_engine = None
        self.campus = Campus(
            seed=spec.seed,
            scheduler=spec.scheduler,
            tbr_config=spec.tbr_config,
            phy=spec.phy,
        )
        #: flows currently offering traffic, per station.
        self._active: Dict[str, List[FlowHandle]] = {}
        #: the spec flows a ``traffic on`` burst re-instantiates.
        self._spec_flows: Dict[str, List[FlowSpec]] = {}
        #: the original station specs, kept for rejoin revival.
        self._station_specs: Dict[str, StationSpec] = {}
        #: station -> the cell it last associated in (rejoin target).
        self._last_cells: Dict[str, str] = {}
        self._burst_seq: Dict[str, int] = {}
        self._rejoin_seq: Dict[str, int] = {}
        self._degrade_seq = 0
        #: still-open degrade windows' models, oldest first; closing one
        #: re-exposes the newest remaining (or the base model), so
        #: nested and interleaved windows both restore correctly.
        self._degrade_stack: List = []
        #: the channel's model before the first open window (``None``:
        #: the ideal channel, which is what the restore puts back).
        self._degrade_base = None
        self._outage_seq = 0
        self.timeline_fired = 0
        self.roams_fired = 0

        layout = _campus_spec(spec)
        for cell_spec in layout.cells:
            ap_address = cell_spec.ap_address
            if ap_address is None and len(layout.cells) == 1:
                # One lone cell keeps the canonical "ap" address however
                # the spec spells it: the address names the AP MAC's RNG
                # stream, so it is part of the byte-identity contract.
                ap_address = "ap"
            cell = self.campus.add_cell(
                cell_spec.name,
                channel=cell_spec.channel,
                ap_address=ap_address,
            )
            if spec.reaper is not None:
                cell.enable_reaper(
                    ReaperConfig(
                        exhaustion_threshold=spec.reaper.exhaustion_threshold,
                        idle_timeout_us=us_from_s(spec.reaper.idle_timeout_s),
                    ),
                    on_reap=self._on_reaped,
                )
            for station in cell_spec.stations:
                self._add_station(
                    cell_spec.name,
                    station,
                    [f for f in cell_spec.flows if f.station == station.name],
                )
        for a, b in layout.adjacency:
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
    @property
    def cell(self) -> Cell:
        """The lone cell of a one-cell runtime — the paper's cell, and
        what join, degrade and outage events address."""
        cells = self.campus.cells
        if len(cells) != 1:
            raise AttributeError(
                f"a {len(cells)}-cell runtime has no lone cell; "
                "see runtime.campus.cells"
            )
        return next(iter(cells.values()))

    def _add_station(
        self,
        cell_name: str,
        station: StationSpec,
        flows: List[FlowSpec],
        suffix: str = "",
    ) -> None:
        """Associate ``station`` in ``cell_name`` and start ``flows`` —
        at compile time, on a join and (with an ``@r<n>`` ``suffix``)
        on every rejoin and roam landing."""
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
        for flow, name in zip(flows, self._flow_names(flows, suffix)):
            self._start_flow(flow, name=name)

    @staticmethod
    def _flow_names(
        flows: List[FlowSpec], suffix: str = ""
    ) -> List[Optional[str]]:
        """Explicit flow names where the Cell's defaults would collide.

        ``Cell`` names flows ``<station>/<kind>-<direction>``, so two
        spec flows sharing that triple would merge in every per-flow
        report (and share a UDP RNG stream name).  The first occurrence
        keeps the default name (``None`` — byte-compatible with the
        pre-scenario construction path); repeats get ``#2``, ``#3``…
        ``suffix`` carries the ``@<burst>`` tag for re-started flows,
        where even first occurrences need an explicit name.
        """
        counts: Dict[tuple, int] = {}
        names: List[Optional[str]] = []
        for flow in flows:
            base = f"{flow.station}/{flow.kind}-{flow.direction}"
            n = counts[base] = counts.get(base, 0) + 1
            dup = "" if n == 1 else f"#{n}"
            if not suffix and n == 1:
                names.append(None)
            else:
                names.append(f"{base}{dup}{suffix}")
        return names

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
    #: event type -> handler(runtime, event): the one dispatch, covering
    #: every member of :data:`~repro.scenario.spec.TimelineEvent`.
    _HANDLERS = {
        JoinEvent: lambda self, e: self._join(e),
        LeaveEvent: lambda self, e: self._leave(e.station),
        RejoinEvent: lambda self, e: self._rejoin(e.station),
        RateSwitchEvent: lambda self, e: self._switch_rate(e),
        TrafficOffEvent: lambda self, e: self._quiesce_station(e.station),
        TrafficOnEvent: lambda self, e: self._burst_on(e.station),
        ChannelDegradeEvent: lambda self, e: self._degrade_channel(e),
        ApOutageEvent: lambda self, e: self._ap_outage(e),
        StationCrashEvent: lambda self, e: self._crash(e.station),
        RoamEvent: lambda self, e: self._roam(e),
    }

    def _fire(self, event) -> None:
        self.timeline_fired += 1
        handler = self._HANDLERS.get(type(event))
        if handler is None:  # pragma: no cover - spec.validate() rejects it
            raise TypeError(f"unknown timeline event {event!r}")
        handler(self, event)

    def _join(self, event: JoinEvent) -> None:
        (cell_name,) = self.campus.cells  # the lone cell, as in ``cell``
        self._add_station(cell_name, event.station, list(event.flows))

    def _leave(self, name: str) -> None:
        """True disassociation: quiesce sources, then tear down in
        whichever cell holds the station."""
        self._quiesce_station(name)
        self.campus.remove_station(name)

    def _roam(self, event: RoamEvent) -> None:
        """Disassociate from the source cell now; land later."""
        self.roams_fired += 1
        self._leave(event.station)
        # The landing is builder machinery (like an outage recovery):
        # it rides category OTHER but does not count as timeline_fired.
        self.campus.sim.schedule(
            us_from_s(event.delay_s),
            self._rejoin,
            event.station,
            event.to_cell,
            category=EventCategory.OTHER,
        )

    def _crash(self, name: str) -> None:
        """Ungraceful death: the station vanishes, AP state stays.

        Uplink sources stop (a dead station offers nothing of its own)
        but downlink flows keep sending toward the silent peer — the
        resulting retry-exhaustion storm is the reaper's evidence.  No
        AP-side teardown happens here by design.
        """
        survivors = []
        for handle in self._active.get(name, ()):
            if handle.direction == "up":
                self._quiesce_flow(handle)
            else:
                survivors.append(handle)
        self._active[name] = survivors
        self.campus.crash_station(name)

    def _on_reaped(self, name: str) -> None:
        """The AP declared ``name`` dead and tore its state down;
        stop the remaining (downlink) sources so the wire does not keep
        offering traffic the scheduler will only refuse.

        The reaper works inside the cell, behind the campus's back, so
        a reaped station that had *not* crashed (a live one behind a
        hopeless link) is still on the membership map: drop it here."""
        self.campus.membership.pop(name, None)
        self._quiesce_station(name)

    def _ap_outage(self, event: ApOutageEvent) -> None:
        """The AP dies: everyone present is torn down, the AP's MAC
        goes dark (in-flight frame aborted), and recovery is scheduled.

        Rejoin delays are drawn *now* from an RNG seeded by the spec
        seed and the outage ordinal — pure builder machinery, replayed
        byte-identically run to run.
        """
        self._outage_seq += 1
        survivors = list(self.cell.stations)
        for name in survivors:
            self._leave(name)
        self.cell.ap.outage_begin()
        rng = random.Random(f"{self.spec.seed}:outage:{self._outage_seq}")
        delays = [
            rng.uniform(0.0, event.rejoin_jitter_s) for _ in survivors
        ]
        self.cell.sim.schedule(
            us_from_s(event.duration_s),
            self._ap_recover,
            survivors,
            delays,
            category=EventCategory.OTHER,
        )

    def _ap_recover(self, survivors: List[str], delays: List[float]) -> None:
        self.cell.ap.outage_end()
        for name, delay in zip(survivors, delays):
            self.cell.sim.schedule(
                us_from_s(delay),
                self._rejoin,
                name,
                category=EventCategory.OTHER,
            )

    def _rejoin(self, name: str, cell_name: Optional[str] = None) -> None:
        """Associate again, from the original spec, a station that was
        here before: in ``cell_name`` (a roam landing) or by default the
        cell it last occupied (rejoin, outage recovery) — membership was
        popped on the way out, so ``_last_cells`` remembers."""
        seq = self._rejoin_seq.get(name, 0) + 1
        self._rejoin_seq[name] = seq
        self._add_station(
            cell_name if cell_name is not None else self._last_cells[name],
            self._station_specs[name],
            self._spec_flows[name],
            suffix=f"@r{seq}",
        )

    def _quiesce_station(self, name: str) -> None:
        for handle in self._active.get(name, ()):
            self._quiesce_flow(handle)
        self._active[name] = []

    @staticmethod
    def _quiesce_flow(handle: FlowHandle) -> None:
        if handle.kind == "udp":
            handle.sender.stop()
            return
        if isinstance(handle.app, PacedApp):
            handle.app.stop()
        sender = handle.sender
        # Clamp the application at the bytes already handed to the
        # network: nothing new is offered, in-flight data drains.
        if sender.app_limit is None or sender.app_limit > sender.snd_nxt:
            sender.app_limit = sender.snd_nxt
        sender.app_finished = True

    def _switch_rate(self, event: RateSwitchEvent) -> None:
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
        if name not in self.campus.membership:
            return  # departed, crashed or mid-roam: nobody to send
        self._quiesce_station(name)  # idempotent: on-after-on restarts
        seq = self._burst_seq.get(name, 0) + 1
        self._burst_seq[name] = seq
        flows = self._spec_flows.get(name, [])
        for flow, flow_name in zip(
            flows, self._flow_names(flows, suffix=f"@{seq}")
        ):
            self._start_flow(flow, name=flow_name)

    def _degrade_channel(self, event: ChannelDegradeEvent) -> None:
        """Install a loss burst; restore the prior model when it ends.

        The installed model's RNG is seeded from the spec seed and the
        burst's ordinal, never from the channel's own stream — so a
        degrade window perturbs frame outcomes identically run to run.
        The restore is scheduled as plain builder machinery (it does
        not advance ``timeline_fired``).  Open windows form a stack:
        closing the one currently in force re-exposes the newest still-
        open window's model, and closing an already-superseded window
        just retires it — correct for both nested and interleaved
        windows.
        """
        self._degrade_seq += 1
        rng = random.Random(
            f"{self.spec.seed}:degrade:{self._degrade_seq}"
        )
        if event.station is None:
            model = BernoulliLoss(event.loss_probability, rng=rng)
        else:
            ap = self.cell.ap.address
            model = PerLinkLoss(
                {
                    (event.station, ap): event.loss_probability,
                    (ap, event.station): event.loss_probability,
                },
                rng=rng,
            )
        if not self._degrade_stack:
            self._degrade_base = self.cell.channel.loss
        self._degrade_stack.append(model)
        self.cell.channel.loss = model
        # Fires at ``at_s + duration_s``: we are at ``at_s`` right now.
        self.cell.sim.schedule(
            us_from_s(event.duration_s),
            self._restore_loss,
            model,
            category=EventCategory.OTHER,
        )

    def _restore_loss(self, installed) -> None:
        stack = self._degrade_stack
        for i, model in enumerate(stack):
            if model is installed:
                del stack[i]
                break
        else:  # pragma: no cover - every close matches one open
            return
        if self.cell.channel.loss is installed:
            self.cell.channel.loss = (
                stack[-1] if stack else self._degrade_base
            )
        if not stack:
            self._degrade_base = None

    # ------------------------------------------------------------------
    # running and reporting
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Warm up, then measure, per the spec's windows.

        With sanitization on, the invariant sanitizer observes the
        kernel for the whole run and its end-of-run
        conservation checks fire before this returns — an
        :class:`~repro.sim.sanitizer.InvariantViolation` propagates to
        the caller.
        """
        if self.sanitize and self.sanitizer is None:
            if len(self.campus.cells) == 1:
                self.sanitizer = RuntimeSanitizer(self.cell).install()
            else:
                self.sanitizer = CampusSanitizer(self.campus).install()
        if self.fast_forward and self.ff_engine is None:
            # The engine, not the builder, decides whether this campus
            # can jump (today: one cell) and records why when it cannot.
            self.ff_engine = FastForwardEngine(self.campus)
        runner = self.ff_engine.run if self.ff_engine else self.campus.run
        try:
            runner(
                seconds=self.spec.seconds,
                warmup_seconds=self.spec.warmup_seconds,
            )
        finally:
            if self.sanitizer is not None:
                self.sanitizer.uninstall()
        if self.sanitizer is not None:
            self.sanitizer.finalize()

    def pool_leaked(self) -> int:
        """End-of-run pooled-packet leak count, summed over the cells
        (0 on a healthy run); see :func:`repro.sim.sanitizer.pool_leak`."""
        return sum(pool_leak(cell) for cell in self.campus.cells.values())

    def station_rates_mbps(self) -> Dict[str, float]:
        """Current uplink rate per station (post-timeline)."""
        return {
            name: station.rate_controller.rate_for(station.ap_address)
            for cell in self.campus.cells.values()
            for name, station in cell.stations.items()
        }
