"""Declarative scenario descriptions.

A :class:`ScenarioSpec` is a *complete*, frozen description of one
single-cell workload: the AP discipline, the stations with their PHY
rates, the traffic mix (TCP/UDP flows in either direction), and a
timeline of events that change the cell while it runs — stations
joining and leaving (churn), rate switches emulating mobility, and
traffic bursts turning on and off.

Specs are data, not code: the builder (:mod:`repro.scenario.builder`)
compiles a spec into a ready-to-run :class:`repro.node.cell.Cell`, and
the campaign subsystem ships specs to worker processes as job configs
(:func:`repro.campaign.job.freeze` handles the nested dataclasses).
Identity is *content*: two specs with the same frozen tree compare
equal, hash equal, and share a digest — which is exactly what makes
sweep results cacheable and coalescible.

Time convention: ``at_s`` timestamps are simulated seconds measured
from the start of the run, on the same clock as the warm-up — an event
at ``at_s=1.0`` in a spec with ``warmup_seconds=3`` fires during the
warm-up.  Events beyond ``warmup_seconds + seconds`` never fire.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

from repro.core.tbr import TbrConfig
from repro.phy.phy import DOT11B_LONG_PREAMBLE, PhyParams

SCHEDULERS = ("fifo", "rr", "drr", "tbr")
FLOW_KINDS = ("tcp", "udp")
DIRECTIONS = ("up", "down")
TCP_APPS = ("bulk", "task", "paced")


def check_finite(tree: Any) -> None:
    """Raise ``ValueError`` naming the first ``inf`` or ``nan`` in
    ``tree``: dataclass fields, sequence items and mapping values, in
    order, walked without recursion.

    One walk covers every number, because a non-finite one slips past
    each field's own check (``nan <= 0`` and ``inf <= 0`` are false)
    and a horizon of ``inf`` never ends.  Builders that lay out a
    timeline up to the horizon take their overrides through here
    before they run.
    """
    # (node, parent entry, key in parent); a path is spelled on failure.
    stack = [(tree, None, None)]
    while stack:
        entry = stack.pop()
        node = entry[0]
        if isinstance(node, float):
            if math.isfinite(node):
                continue
            where = ""
            while entry[1] is not None:
                key = entry[2]
                step = f"[{key}]" if isinstance(key, int) else f".{key}"
                where, entry = step + where, entry[1]
            raise ValueError(
                f"{where.lstrip('.') or 'value'} must be a finite number, "
                f"got {node!r}"
            )
        if node is None or isinstance(node, (str, int)):
            continue
        if isinstance(node, (tuple, list)):
            children = list(enumerate(node))
        elif isinstance(node, dict):
            children = list(node.items())
        elif dataclasses.is_dataclass(node):
            children = [(f.name, getattr(node, f.name))
                        for f in dataclasses.fields(node)]
        else:
            continue
        stack.extend((value, entry, key) for key, value in reversed(children))


@dataclass(frozen=True)
class StationSpec:
    """One client station: a name and its (initial) PHY rates."""

    name: str
    rate_mbps: float = 11.0
    #: AP -> station rate; defaults to the uplink rate.
    downlink_rate_mbps: Optional[float] = None
    queue_capacity: int = 100
    cooperate_with_tbr: bool = False

    def validate(self) -> None:
        if not self.name:
            raise ValueError("station name must be non-empty")
        if self.rate_mbps <= 0:
            raise ValueError(f"station {self.name!r}: rate must be positive")
        if self.downlink_rate_mbps is not None and self.downlink_rate_mbps <= 0:
            raise ValueError(
                f"station {self.name!r}: downlink rate must be positive"
            )
        if self.queue_capacity < 1:
            raise ValueError(
                f"station {self.name!r}: queue capacity must be >= 1"
            )


@dataclass(frozen=True)
class FlowSpec:
    """One flow attached to a station.

    ``rate_mbps`` is the offered rate for UDP flows and the pacing rate
    for TCP ``app="paced"`` flows; bulk TCP ignores it (infinite
    backlog).  ``task_bytes`` sizes a TCP ``app="task"`` transfer.
    """

    station: str
    kind: str = "tcp"  # "tcp" | "udp"
    direction: str = "up"
    app: str = "bulk"  # tcp only: "bulk" | "task" | "paced"
    rate_mbps: float = 4.0
    payload_bytes: int = 1472  # udp datagram payload
    task_bytes: Optional[int] = None

    def validate(self) -> None:
        if self.kind not in FLOW_KINDS:
            raise ValueError(f"flow kind must be one of {FLOW_KINDS}")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"flow direction must be one of {DIRECTIONS}")
        if self.kind == "tcp":
            if self.app not in TCP_APPS:
                raise ValueError(f"tcp app must be one of {TCP_APPS}")
            if self.app == "task" and (
                self.task_bytes is None or self.task_bytes <= 0
            ):
                raise ValueError("task flows need positive task_bytes")
            if self.app == "paced" and self.rate_mbps <= 0:
                raise ValueError("paced flows need positive rate_mbps")
        else:
            if self.rate_mbps <= 0:
                raise ValueError("udp flows need positive rate_mbps")
            if self.payload_bytes <= 0:
                raise ValueError("udp payload_bytes must be positive")


# ----------------------------------------------------------------------
# timeline events
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JoinEvent:
    """A station (plus its flows) enters the cell at ``at_s``."""

    at_s: float
    station: StationSpec
    flows: Tuple[FlowSpec, ...] = ()


@dataclass(frozen=True)
class LeaveEvent:
    """The station truly disassociates at ``at_s``.

    Departure runs through every layer: traffic sources are quiesced
    (no new data offered), then :meth:`repro.node.cell.Cell.
    remove_station` tears the station down — its MAC cancels pending
    events and detaches from the channel, the AP scheduler flushes the
    station's queued downlink packets back to the packet pool, and
    under TBR the token bucket is retired with its rate redistributed
    to the remaining stations.  A frame already committed to the air
    still ends normally; everything else is abandoned.  Use
    :class:`TrafficOffEvent` for a source-side pause that keeps the
    association alive.
    """

    at_s: float
    station: str


@dataclass(frozen=True)
class RejoinEvent:
    """A previously-departed station re-associates at ``at_s``.

    The original :class:`StationSpec` is revived as a fresh station
    (new MAC state, new queue, and — under TBR — a fresh
    ``initial_tokens_us`` grant, exactly once) and its spec'd flows are
    re-instantiated under ``<name>@r<n>`` identities so RNG streams
    stay deterministic across leave/rejoin cycles.
    """

    at_s: float
    station: str


@dataclass(frozen=True)
class RateSwitchEvent:
    """The station's PHY rate changes at ``at_s`` (mobility emulation).

    Both directions switch: the station's uplink rate and the AP's
    downlink rate toward it (``downlink_rate_mbps`` overrides the
    latter when the two should differ).
    """

    at_s: float
    station: str
    rate_mbps: float
    downlink_rate_mbps: Optional[float] = None


@dataclass(frozen=True)
class TrafficOffEvent:
    """Quiesce the station's active flows at ``at_s`` (burst gap)."""

    at_s: float
    station: str


@dataclass(frozen=True)
class TrafficOnEvent:
    """(Re)start the station's spec'd flows at ``at_s``.

    Each burst instantiates fresh sources under unique flow names
    (``<station>/<kind>-<direction>@<n>``), so RNG streams — and with
    them the whole run — stay deterministic across on/off cycles.
    """

    at_s: float
    station: str


@dataclass(frozen=True)
class ApOutageEvent:
    """The AP dies at ``at_s`` and recovers ``duration_s`` later.

    An ungraceful, cell-wide failure: the AP's MAC shuts down mid-grant
    (an in-flight downlink frame is aborted on the air and never
    delivers), every queued downlink packet flushes back to the
    :class:`~repro.transport.packet.PacketPool`, and all associated
    stations lose their association — queues flushed, token buckets
    retired — through the same teardown path as :class:`LeaveEvent`.

    On recovery the AP's MAC restarts and each survivor re-associates
    after an individual jittered delay in ``[0, rejoin_jitter_s]``
    (spec-seeded, so outage runs stay deterministic), receiving — under
    TBR — a fresh ``initial_tokens_us`` grant exactly once, exactly as
    a :class:`RejoinEvent` would.  The recovery and the per-station
    rejoins are builder machinery, not timeline events: only the outage
    itself counts toward ``timeline_fired``.

    Other timeline events may not fire inside the outage's exclusion
    window ``[at_s, at_s + duration_s + rejoin_jitter_s]`` — the cell's
    population is in flux there and event semantics would be ambiguous.
    """

    at_s: float
    duration_s: float
    #: each survivor rejoins at ``at_s + duration_s + U[0, jitter]``.
    rejoin_jitter_s: float = 0.2


@dataclass(frozen=True)
class StationCrashEvent:
    """The station vanishes at ``at_s`` *without* disassociating.

    Unlike :class:`LeaveEvent` nothing is torn down on the AP side: the
    station's MAC simply stops answering, so its queue, token bucket
    and token rate stay allocated — stranded — until the AP-side
    inactivity reaper (see :class:`ReaperSpec`) detects the dead peer
    from consecutive retry-limit exhaustions plus an idle timeout and
    drives the ordinary ``disassociate`` path, renormalizing survivor
    shares to ``1/n_active``.  Downlink flows toward the crashed
    station keep offering traffic (that is what arms the reaper);
    uplink sources are quiesced, since a dead station sends nothing.
    Crashed stations never rejoin.
    """

    at_s: float
    station: str


@dataclass(frozen=True)
class RoamEvent:
    """The station hands off between cells at ``at_s`` (campus only).

    Compiled as disassociate(``from_cell``) → ``delay_s`` of
    association latency → associate(``to_cell``): the source cell tears
    the station down through the ordinary leave path (queue flushed,
    TBR bucket retired, MAC detached), and after the delay a fresh
    station object associates in the destination — a new queue, one new
    ``T_init`` grant under TBR, and the station's spec'd flows
    restarted under ``@r<n>`` identities.  The landing is builder
    machinery; only the roam itself counts toward ``timeline_fired``.
    """

    at_s: float
    station: str
    from_cell: str
    to_cell: str
    #: scan/authenticate/associate latency before the landing.
    delay_s: float = 0.05


@dataclass(frozen=True)
class CellSpec:
    """One cell of a campus: its RF channel and initial population."""

    name: str
    #: RF channel number (cells sharing one interfere when adjacent).
    channel: int = 1
    #: AP MAC address; ``None`` derives ``ap@<name>`` — except in a
    #: single-cell campus, where it stays ``"ap"`` so the campus path
    #: is byte-identical to the plain single-cell path.
    ap_address: Optional[str] = None
    stations: Tuple[StationSpec, ...] = ()
    flows: Tuple[FlowSpec, ...] = ()

    def validate(self) -> None:
        if not self.name:
            raise ValueError("cell name must be non-empty")
        if self.channel < 1:
            raise ValueError(
                f"cell {self.name!r}: channel must be >= 1"
            )
        local: Dict[str, bool] = {}
        for station in self.stations:
            station.validate()
            if station.name in local:
                raise ValueError(
                    f"cell {self.name!r}: duplicate station "
                    f"{station.name!r}"
                )
            local[station.name] = True
        for flow in self.flows:
            flow.validate()
            if flow.station not in local:
                raise ValueError(
                    f"cell {self.name!r}: flow references station "
                    f"{flow.station!r} outside the cell"
                )


@dataclass(frozen=True)
class CampusSpec:
    """The ESS section of a :class:`ScenarioSpec`.

    ``adjacency`` lists unordered cell-name pairs that are physically
    close enough to interfere; a pair actually couples only when both
    cells sit on the same RF ``channel``.
    """

    cells: Tuple[CellSpec, ...]
    adjacency: Tuple[Tuple[str, str], ...] = ()

    def validate(self) -> None:
        if not self.cells:
            raise ValueError("campus needs at least one cell")
        names = set()
        stations = set()
        for cell in self.cells:
            cell.validate()
            if cell.name in names:
                raise ValueError(f"duplicate cell name {cell.name!r}")
            names.add(cell.name)
            for station in cell.stations:
                if station.name in stations:
                    raise ValueError(
                        f"station {station.name!r} appears in more "
                        "than one cell"
                    )
                stations.add(station.name)
        ap_addresses = set()
        for cell in self.cells:
            if cell.ap_address is None:
                continue
            if cell.ap_address in ap_addresses:
                raise ValueError(
                    f"duplicate AP address {cell.ap_address!r}"
                )
            ap_addresses.add(cell.ap_address)
        seen_pairs = set()
        for pair in self.adjacency:
            if len(pair) != 2:
                raise ValueError(f"adjacency entry {pair!r} is not a pair")
            a, b = pair
            if a == b:
                raise ValueError(f"cell {a!r} cannot neighbour itself")
            for name in (a, b):
                if name not in names:
                    raise ValueError(
                        f"adjacency references unknown cell {name!r}"
                    )
            key = (a, b) if a <= b else (b, a)
            if key in seen_pairs:
                raise ValueError(f"duplicate adjacency pair {key!r}")
            seen_pairs.add(key)


@dataclass(frozen=True)
class ReaperSpec:
    """AP-side inactivity reaper knobs (attach to ``ScenarioSpec``).

    The reaper disassociates a station once **both** hold: at least
    ``exhaustion_threshold`` consecutive retry-limit exhaustions toward
    it, and nothing heard from it for ``idle_timeout_s``.  Requiring
    the exhaustion evidence keeps merely-quiet stations (burst gaps,
    ``TrafficOffEvent``) safe from reaping.
    """

    exhaustion_threshold: int = 2
    idle_timeout_s: float = 0.5

    def validate(self) -> None:
        if self.exhaustion_threshold < 1:
            raise ValueError("reaper exhaustion_threshold must be >= 1")
        if self.idle_timeout_s <= 0:
            raise ValueError("reaper idle_timeout_s must be positive")


@dataclass(frozen=True)
class ChannelDegradeEvent:
    """The channel degrades at ``at_s`` for ``duration_s`` seconds.

    While the window is open, frames are lost i.i.d. with
    ``loss_probability`` — on every link when ``station`` is ``None``,
    or only between the named station and the AP (both directions) —
    emulating an interference burst or a fade.  The previous loss model
    is restored when the window closes (the restore is builder
    machinery, not a timeline event: it does not count toward
    ``timeline_fired``).  The loss RNG is seeded from the spec seed and
    the event's position, so degraded runs stay deterministic.
    """

    at_s: float
    duration_s: float
    loss_probability: float
    station: Optional[str] = None


TimelineEvent = Union[
    JoinEvent,
    LeaveEvent,
    RejoinEvent,
    RateSwitchEvent,
    TrafficOffEvent,
    TrafficOnEvent,
    ChannelDegradeEvent,
    ApOutageEvent,
    StationCrashEvent,
    RoamEvent,
]

#: Event kinds a campus timeline may carry.  Joins, outages, crashes
#: and degrades are single-cell semantics the ESS layer does not define
#: yet — validation rejects them rather than guessing.
CAMPUS_EVENTS = (
    RoamEvent,
    LeaveEvent,
    RejoinEvent,
    RateSwitchEvent,
    TrafficOffEvent,
    TrafficOnEvent,
)


@dataclass(frozen=True, eq=False)
class ScenarioSpec:
    """A complete, content-addressed description of one cell workload.

    Equality and hashing are by *content digest* (the same frozen-tree
    encoding the campaign cache uses), so specs work as dict keys and
    dedup naturally even though ``tbr_config`` and ``phy`` are nested
    dataclasses.
    """

    name: str
    scheduler: str = "fifo"
    tbr_config: Optional[TbrConfig] = None
    phy: PhyParams = DOT11B_LONG_PREAMBLE
    stations: Tuple[StationSpec, ...] = ()
    flows: Tuple[FlowSpec, ...] = ()
    timeline: Tuple[TimelineEvent, ...] = ()
    seconds: float = 10.0
    warmup_seconds: float = 0.0
    seed: int = 1
    #: AP-side inactivity reaper; ``None`` (the default) disables it,
    #: so specs without crash events behave exactly as before.
    reaper: Optional[ReaperSpec] = None
    #: ESS section: when set, the spec describes N cells on one shared
    #: kernel (stations and flows live inside ``campus.cells``, and the
    #: top-level ``stations``/``flows`` must stay empty).
    campus: Optional[CampusSpec] = None

    # ------------------------------------------------------------------
    # content identity
    # ------------------------------------------------------------------
    def _frozen_tree(self):
        from repro.campaign.job import freeze

        return freeze(self)

    @property
    def digest(self) -> str:
        """SHA-256 over the frozen spec tree (stable across processes)."""
        cached = self.__dict__.get("_digest")
        if cached is None:
            cached = hashlib.sha256(
                repr(self._frozen_tree()).encode("utf-8")
            ).hexdigest()
            object.__setattr__(self, "_digest", cached)
        return cached

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScenarioSpec):
            return NotImplemented
        return self.digest == other.digest

    def __hash__(self) -> int:
        return hash(self.digest)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    @property
    def horizon_s(self) -> float:
        """Total simulated time (warm-up plus measurement window)."""
        return self.warmup_seconds + self.seconds

    def validate(self) -> None:
        """Raise ``ValueError`` on any inconsistency a build would hit.

        Checks static shape *and* timeline causality: an event may only
        reference a station that exists (initially present or already
        joined) and has not left before the event fires.
        """
        check_finite(self)
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r} (one of {SCHEDULERS})"
            )
        if self.seconds <= 0:
            raise ValueError("seconds must be positive")
        if self.warmup_seconds < 0:
            raise ValueError("warmup_seconds must be >= 0")
        if self.reaper is not None:
            self.reaper.validate()
        if self.campus is not None:
            self._validate_campus()
            return

        present: Dict[str, bool] = {}  # name -> still active
        for station in self.stations:
            station.validate()
            if station.name in present:
                raise ValueError(f"duplicate station name {station.name!r}")
            present[station.name] = True
        for flow in self.flows:
            flow.validate()
            if flow.station not in present:
                raise ValueError(
                    f"flow references unknown station {flow.station!r}"
                )

        known_events = (
            JoinEvent,
            LeaveEvent,
            RejoinEvent,
            RateSwitchEvent,
            TrafficOffEvent,
            TrafficOnEvent,
            ChannelDegradeEvent,
            ApOutageEvent,
            StationCrashEvent,
        )
        for event in self.timeline:
            if not isinstance(event, known_events):
                raise ValueError(
                    f"unknown timeline event type {type(event).__name__}"
                )

        # AP outages freeze the whole cell's population; nothing else
        # may fire inside an outage's exclusion window (down time plus
        # the rejoin jitter tail), and windows must not overlap.
        outages = sorted(
            (e for e in self.timeline if isinstance(e, ApOutageEvent)),
            key=lambda e: e.at_s,
        )
        for outage in outages:
            if outage.duration_s <= 0:
                raise ValueError(
                    f"AP outage at {outage.at_s}s: duration_s must be "
                    "positive"
                )
            if outage.rejoin_jitter_s < 0:
                raise ValueError(
                    f"AP outage at {outage.at_s}s: rejoin_jitter_s must "
                    "be >= 0"
                )
        windows = [
            (o.at_s, o.at_s + o.duration_s + o.rejoin_jitter_s)
            for o in outages
        ]
        for (_, prev_end), (next_start, _) in zip(windows, windows[1:]):
            if next_start <= prev_end:
                raise ValueError(
                    f"AP outage at {next_start}s overlaps the previous "
                    "outage's exclusion window"
                )
        for event in self.timeline:
            if isinstance(event, ApOutageEvent):
                continue
            for start, end in windows:
                if start <= event.at_s <= end:
                    raise ValueError(
                        f"timeline event at {event.at_s}s falls inside "
                        f"the AP outage exclusion window "
                        f"[{start}s, {end}s]"
                    )

        crashed: set = set()
        for event in sorted(self.timeline, key=lambda e: e.at_s):
            if event.at_s < 0:
                raise ValueError("timeline event times must be >= 0")
            if isinstance(event, ApOutageEvent):
                continue
            if isinstance(event, JoinEvent):
                event.station.validate()
                if event.station.name in present:
                    raise ValueError(
                        f"join at {event.at_s}s: station "
                        f"{event.station.name!r} already exists"
                    )
                present[event.station.name] = True
                for flow in event.flows:
                    flow.validate()
                    if flow.station != event.station.name:
                        # The builder files join flows under the joiner
                        # for later quiesce/burst bookkeeping; a flow on
                        # another station would silently escape it.
                        raise ValueError(
                            f"join at {event.at_s}s: flow must belong to "
                            f"the joining station {event.station.name!r}, "
                            f"not {flow.station!r}"
                        )
            elif isinstance(event, ChannelDegradeEvent):
                if not 0.0 <= event.loss_probability <= 1.0:
                    raise ValueError(
                        f"channel degrade at {event.at_s}s: "
                        "loss_probability must be in [0, 1]"
                    )
                if event.duration_s <= 0:
                    raise ValueError(
                        f"channel degrade at {event.at_s}s: duration_s "
                        "must be positive"
                    )
                if event.station is not None and event.station not in present:
                    raise ValueError(
                        f"channel degrade at {event.at_s}s references "
                        f"unknown station {event.station!r}"
                    )
            else:
                active = present.get(event.station)
                if active is None:
                    raise ValueError(
                        f"timeline event at {event.at_s}s references "
                        f"unknown station {event.station!r}"
                    )
                if isinstance(event, RejoinEvent):
                    if event.station in crashed:
                        raise ValueError(
                            f"rejoin at {event.at_s}s: station "
                            f"{event.station!r} crashed — crashed "
                            "stations do not rejoin"
                        )
                    if active:
                        raise ValueError(
                            f"rejoin at {event.at_s}s: station "
                            f"{event.station!r} never left"
                        )
                    present[event.station] = True
                    continue
                if not active:
                    raise ValueError(
                        f"timeline event at {event.at_s}s: station "
                        f"{event.station!r} already left"
                    )
                if isinstance(event, LeaveEvent):
                    present[event.station] = False
                elif isinstance(event, StationCrashEvent):
                    present[event.station] = False
                    crashed.add(event.station)
                elif isinstance(event, RateSwitchEvent):
                    if event.rate_mbps <= 0:
                        raise ValueError("rate switch needs a positive rate")
                    if (
                        event.downlink_rate_mbps is not None
                        and event.downlink_rate_mbps <= 0
                    ):
                        raise ValueError(
                            "rate switch needs a positive downlink rate"
                        )

    def _validate_campus(self) -> None:
        """Campus-mode consistency: cell shapes, event kinds, and roam
        causality (a station roams *from* the cell it is actually in,
        and nothing touches it while it is between cells)."""
        campus = self.campus
        assert campus is not None
        campus.validate()
        if self.stations or self.flows:
            raise ValueError(
                "campus specs keep stations and flows inside "
                "campus.cells; the top-level tuples must be empty"
            )
        if self.reaper is not None:
            raise ValueError(
                "campus specs do not support the AP-side reaper yet"
            )

        cells = {cell.name for cell in campus.cells}
        #: station -> current cell (None while departed).
        member: Dict[str, Optional[str]] = {}
        #: station -> last cell (for rejoin).
        last_cell: Dict[str, str] = {}
        for cell in campus.cells:
            for station in cell.stations:
                member[station.name] = cell.name
                last_cell[station.name] = cell.name
        #: station -> end of its current in-flight roam window.
        in_flight: Dict[str, float] = {}

        for event in sorted(self.timeline, key=lambda e: e.at_s):
            if event.at_s < 0:
                raise ValueError("timeline event times must be >= 0")
            if not isinstance(event, CAMPUS_EVENTS):
                raise ValueError(
                    f"timeline event {type(event).__name__} is not "
                    "supported in campus mode"
                )
            name = event.station
            if name not in member:
                raise ValueError(
                    f"timeline event at {event.at_s}s references "
                    f"unknown station {name!r}"
                )
            landing = in_flight.get(name)
            if landing is not None and event.at_s < landing:
                raise ValueError(
                    f"timeline event at {event.at_s}s: station "
                    f"{name!r} is mid-roam until {landing}s"
                )
            if isinstance(event, RoamEvent):
                if event.delay_s < 0:
                    raise ValueError(
                        f"roam at {event.at_s}s: delay_s must be >= 0"
                    )
                for cell_name in (event.from_cell, event.to_cell):
                    if cell_name not in cells:
                        raise ValueError(
                            f"roam at {event.at_s}s references unknown "
                            f"cell {cell_name!r}"
                        )
                if event.from_cell == event.to_cell:
                    raise ValueError(
                        f"roam at {event.at_s}s: from_cell and to_cell "
                        "must differ"
                    )
                if member.get(name) != event.from_cell:
                    raise ValueError(
                        f"roam at {event.at_s}s: station {name!r} is in "
                        f"{member.get(name)!r}, not {event.from_cell!r}"
                    )
                member[name] = event.to_cell
                last_cell[name] = event.to_cell
                in_flight[name] = event.at_s + event.delay_s
            elif isinstance(event, LeaveEvent):
                if member.get(name) is None:
                    raise ValueError(
                        f"leave at {event.at_s}s: station {name!r} "
                        "already left"
                    )
                member[name] = None
            elif isinstance(event, RejoinEvent):
                if member.get(name) is not None:
                    raise ValueError(
                        f"rejoin at {event.at_s}s: station {name!r} "
                        "never left"
                    )
                member[name] = last_cell[name]
            else:
                if member.get(name) is None:
                    raise ValueError(
                        f"timeline event at {event.at_s}s: station "
                        f"{name!r} already left"
                    )
                if isinstance(event, RateSwitchEvent):
                    if event.rate_mbps <= 0:
                        raise ValueError("rate switch needs a positive rate")
                    if (
                        event.downlink_rate_mbps is not None
                        and event.downlink_rate_mbps <= 0
                    ):
                        raise ValueError(
                            "rate switch needs a positive downlink rate"
                        )
