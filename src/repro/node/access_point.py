"""The access point: MAC + pluggable downlink scheduler + bridging.

The AP is "just a facilitator" (paper Section 2.2): every frame it
sends or receives is accounted to the client station involved.  The AP:

* bridges uplink packets onto the wired backbone;
* enqueues packets arriving from the wire into its downlink scheduler
  (the paper's APPTXEVENT);
* subscribes the scheduler's ``on_complete`` as its MAC's first
  completion listener (TBR's COMPLETEEVENT for downlink traffic);
* hands every received *uplink* frame to the scheduler unpriced
  (TBR's COMPLETEEVENT for client-originated traffic: only TBR prices
  it, see :attr:`repro.core.TbrConfig.uplink_charge`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set

from repro.channel.medium import Channel
from repro.mac.dcf import DcfMac, ExchangeReport
from repro.node.rate_control import FixedRate, RateController
from repro.phy.phy import PhyParams
from repro.queueing.base import ApScheduler
from repro.sim import EventCategory, Simulator
from repro.transport.packet import Packet, PacketPool
from repro.transport.wired import WiredLink

#: The wired backbone pipes (one each way, generously provisioned).
WIRED_DELAY_US = 1000.0
WIRED_RATE_MBPS = 100.0


def _deliver_packet(packet: Packet) -> None:
    packet.deliver()


@dataclass
class ReaperConfig:
    """Knobs for the AP-side :class:`InactivityReaper`."""

    #: consecutive retry-limit exhaustions toward a station before it
    #: is even a reap candidate (evidence the peer stopped ACKing, not
    #: merely that one frame was unlucky).
    exhaustion_threshold: int = 2
    #: nothing heard from the station for this long (on top of the
    #: exhaustion evidence) before it is declared dead.
    idle_timeout_us: float = 500_000.0

    def __post_init__(self) -> None:
        if self.exhaustion_threshold < 1:
            raise ValueError("exhaustion_threshold must be >= 1")
        if self.idle_timeout_us <= 0:
            raise ValueError("idle_timeout_us must be positive")


class InactivityReaper:
    """Detects dead peers and drives the ordinary disassociate path.

    A station that crashes without disassociating strands AP-side state:
    its downlink queue keeps admitting packets and — under TBR — its
    token rate stays allocated, shrinking every survivor's share.  The
    reaper watches two signals the AP already has: consecutive
    retry-limit exhaustions toward the station (failed reports from the
    AP's MAC: its peer stopped ACKing) and the time since the station
    was last *heard* (an uplink frame received, or a downlink attempt
    it ACKed).  Only when both trip —
    at least ``exhaustion_threshold`` consecutive exhaustions AND
    ``idle_timeout_us`` of silence — does it call ``on_reap(station)``,
    so merely-quiet stations (burst gaps) are never reaped and a lossy
    channel alone (exhaustions, but the station still talks) is not
    enough either.
    """

    #: Pending ``_idle_check`` events move with the heap; the marks
    #: their deadlines derive from must move too.
    TIME_STATE = dict(clocks=("_last_heard",))

    def __init__(
        self,
        sim: Simulator,
        config: ReaperConfig,
        on_reap: Callable[[str], None],
    ) -> None:
        self.sim = sim
        self.config = config
        self.on_reap = on_reap
        self._exhaustions: Dict[str, int] = {}
        self._last_heard: Dict[str, float] = {}
        self._check_pending: Set[str] = set()
        self._reaped: Set[str] = set()
        self.reap_count = 0

    def heard(self, station: str) -> None:
        """The station proved it is alive; reset its death evidence."""
        self._last_heard[station] = self.sim.now
        if self._exhaustions.get(station):
            self._exhaustions[station] = 0

    def on_report(self, report: ExchangeReport) -> None:
        """MAC completion listener (after TBR's charge and the usage
        record): a failed report is a frame that burned all its retries."""
        dst = report.dst
        if report.success or dst in self._reaped:
            return
        self._exhaustions[dst] = self._exhaustions.get(dst, 0) + 1
        # A station never heard from starts its silence clock at the
        # first piece of death evidence, not at minus infinity.
        self._last_heard.setdefault(dst, self.sim.now)
        self._maybe_reap(dst)

    def _maybe_reap(self, station: str) -> None:
        if station in self._reaped:
            return
        if self._exhaustions.get(station, 0) < self.config.exhaustion_threshold:
            return
        deadline = self._last_heard[station] + self.config.idle_timeout_us
        if self.sim.now >= deadline:
            self._reaped.add(station)
            self.reap_count += 1
            self._exhaustions.pop(station, None)
            self._last_heard.pop(station, None)
            self.on_reap(station)
            return
        # Exhaustions already damning, silence not yet long enough —
        # come back when the idle clock can have run out.
        if station not in self._check_pending:
            self._check_pending.add(station)
            self.sim.schedule_at(
                deadline, self._idle_check, station,
                category=EventCategory.TIMER,
            )

    def _idle_check(self, station: str) -> None:
        self._check_pending.discard(station)
        self._maybe_reap(station)

    def forget(self, station: str) -> None:
        """A reaped station re-associated (roaming); track it afresh."""
        self._reaped.discard(station)
        self._exhaustions.pop(station, None)
        self._last_heard.pop(station, None)


class AccessPoint:
    """Infrastructure-mode AP."""

    TIME_STATE = dict(
        parts=(
            "mac", "uplink_wire", "downlink_wire", "scheduler",
            "packet_pool", "reaper",
        ),
    )

    def __init__(
        self,
        sim: Simulator,
        channel: Channel,
        scheduler: ApScheduler,
        phy: PhyParams,
        *,
        address: str = "ap",
        rate_controller: Optional[RateController] = None,
    ) -> None:
        self.sim = sim
        self.address = address
        self.phy = phy
        self.scheduler = scheduler
        self.rate_controller = (
            rate_controller if rate_controller is not None else FixedRate()
        )
        self.mac = DcfMac(
            sim,
            channel,
            address,
            phy,
            rate_provider=self.rate_controller.rate_for,
        )
        self.mac.attach_scheduler(scheduler)
        # First, so TBR charges before anyone reads the report; the one
        # subscription outlives outages (outage_end re-attaches it).
        self.mac.add_completion_listener(scheduler.on_complete)
        self.mac.rx_handler = self._on_mac_rx
        self.mac.attempt_listener = self._on_attempt

        self.uplink_wire = WiredLink(sim, WIRED_DELAY_US, WIRED_RATE_MBPS)
        self.downlink_wire = WiredLink(sim, WIRED_DELAY_US, WIRED_RATE_MBPS)
        #: freelist for demand-driven downlink packets (drop-before-
        #: alloc sources recycle consumed packets through it).
        self.packet_pool = PacketPool()
        # Prebound hot-path callables (one bound-method build per packet
        # adds up in saturated cells).
        self._downlink_send = self.downlink_wire.send
        self._enqueue_downlink_cb = self._enqueue_downlink
        self._deliver_packet_cb = _deliver_packet

        self.uplink_packets = 0

        #: optional dead-peer detector (see :meth:`enable_reaper`).
        self.reaper: Optional[InactivityReaper] = None
        #: True while the AP is down (see :meth:`outage_begin`).
        self.in_outage = False

    # ------------------------------------------------------------------
    def associate(self, station_address: str) -> None:
        """Register a client (the paper's ASSOCIATEEVENT)."""
        self.scheduler.associate(station_address)
        if self.reaper is not None:
            self.reaper.forget(station_address)
            self.reaper.heard(station_address)

    def enable_reaper(
        self, config: ReaperConfig, on_reap: Callable[[str], None]
    ) -> InactivityReaper:
        """Install the inactivity reaper (off by default — detection is
        a policy, and the paper's prototype AP has none)."""
        self.reaper = InactivityReaper(self.sim, config, on_reap)
        self.mac.add_completion_listener(self.reaper.on_report)
        return self.reaper

    # ------------------------------------------------------------------
    # outage: ungraceful AP death and recovery
    # ------------------------------------------------------------------
    def outage_begin(self) -> None:
        """The AP dies this instant.

        Its MAC shuts down with the in-flight frame aborted on the air
        (nothing delivers), every pending MAC event cancelled, and the
        channel attachment dropped.  Callers are expected to have torn
        the stations' associations down first (an AP that vanished
        cannot disassociate anyone gracefully — the scenario builder
        models the stations' own timeout-driven departure).  Idempotent.
        """
        if self.in_outage:
            return
        self.in_outage = True
        self.mac.shutdown(abort_in_flight=True)

    def outage_end(self) -> None:
        """The AP comes back: MAC restarted, scheduler re-attached.

        Contention state is fresh (CW at minimum, no EIFS debt); the
        downlink scheduler keeps its identity, so stations re-associate
        into it exactly as after a graceful leave.  Idempotent.
        """
        if not self.in_outage:
            return
        self.in_outage = False
        self.mac.restart()
        self.mac.attach_scheduler(self.scheduler)
        self.mac.notify_pending()

    def set_downlink_rate(self, station_address: str, mbps: float) -> None:
        if isinstance(self.rate_controller, FixedRate):
            self.rate_controller.set_rate(station_address, mbps)
        else:
            raise TypeError(
                "per-station pinned rates require a FixedRate controller"
            )

    # ------------------------------------------------------------------
    # uplink: station -> AP -> wire
    # ------------------------------------------------------------------
    def _on_mac_rx(self, frame) -> None:
        packet = frame.packet
        if packet is None:
            return
        self.uplink_packets += 1
        if self.reaper is not None:
            self.reaper.heard(packet.station)
        self.scheduler.on_uplink_complete(frame)
        # Bridge to the wired side.
        self.uplink_wire.send(packet, self._deliver_packet_cb)

    # ------------------------------------------------------------------
    # downlink: wire -> AP -> station
    # ------------------------------------------------------------------
    def from_wire(self, packet: Packet) -> None:
        """Entry point for hosts: ship a packet over the backbone pipe."""
        self._downlink_send(packet, self._enqueue_downlink_cb)

    @property
    def downlink_packets(self) -> int:
        """Downlink arrivals offered to the queue: every packet out of
        the downlink wire, admitted, dropped or drained."""
        return self.downlink_wire.delivered

    def _enqueue_downlink(self, packet: Packet) -> None:
        packet.mac_dst = packet.station
        self.scheduler.enqueue(packet)

    def _on_attempt(self, dst: str, success: bool) -> None:
        self.rate_controller.on_attempt(dst, success)
        if success and self.reaper is not None:
            # An ACKed downlink attempt proves the peer is alive.
            self.reaper.heard(dst)
