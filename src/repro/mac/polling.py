"""A PCF-style polling MAC (point coordination).

The paper (Section 4.1): "if the underlying MAC protocol employs a
polling mechanism (such as 802.11's PCF), no explicit communication is
necessary since TBR can dictate which node gets polled."  This module
provides that substrate:

* a :class:`PollingCoordinator` at the AP owns the medium.  After each
  exchange it waits PIFS (= SIFS + one slot, beating any DCF
  contender) and either transmits one downlink packet from its
  scheduler or polls a station;
* a :class:`PolledStation` never contends.  When polled it answers
  after SIFS with one data frame from its queue (or a CF-NULL when
  empty); it ACKs downlink data like any 802.11 receiver;
* the *poll policy* decides who is polled next.
  :class:`RoundRobinPollPolicy` gives DCF-like equal opportunities;
  :class:`TokenPollPolicy` consults a TBR scheduler's buckets and polls
  only token-positive stations — time-based fairness for uplink UDP
  with completely unmodified clients.

The coordinator reuses the same :class:`repro.queueing.ApScheduler`
interface (including TBR) for downlink packets and reports uplink
exchanges through ``on_uplink_complete`` exactly like the DCF AP.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.channel.medium import Channel
from repro.mac.frames import Frame, FrameType
from repro.phy.phy import (
    ACK_BYTES,
    PhyParams,
    ack_airtime_us,
    ack_rate_for,
    frame_airtime_us,
)
from repro.queueing.base import ApScheduler
from repro.sim import EventCategory, EventPriority, Simulator

#: CF-POLL frame size (MAC header + FCS, no payload).
POLL_BYTES = 20
#: CF-NULL response size.
CF_NULL_BYTES = 14


class RoundRobinPollPolicy:
    """Poll every registered station in turn (opportunity fairness)."""

    def __init__(self) -> None:
        self.stations: List[str] = []
        self._index = 0

    def register(self, station: str) -> None:
        if station not in self.stations:
            self.stations.append(station)

    def next_station(self) -> Optional[str]:
        if not self.stations:
            return None
        station = self.stations[self._index % len(self.stations)]
        self._index += 1
        return station


class TokenPollPolicy:
    """Poll token-positive stations round-robin (TBR-driven PCF).

    Falls back to plain round robin when every station is starved and
    ``work_conserving`` is set, mirroring TBR's dequeue fallback.
    """

    def __init__(self, tbr, *, work_conserving: bool = False) -> None:
        self.tbr = tbr
        self.work_conserving = work_conserving
        self.stations: List[str] = []
        self._index = 0

    def register(self, station: str) -> None:
        if station not in self.stations:
            self.stations.append(station)
        self.tbr.associate(station)

    def next_station(self) -> Optional[str]:
        n = len(self.stations)
        if n == 0:
            return None
        for offset in range(n):
            idx = (self._index + offset) % n
            station = self.stations[idx]
            if not self.tbr.station_starved(station):
                self._index = (idx + 1) % n
                return station
        if self.work_conserving:
            station = self.stations[self._index % n]
            self._index += 1
            return station
        return None


class PolledStation:
    """A station that transmits only in response to CF-POLLs."""

    def __init__(
        self,
        sim: Simulator,
        channel: Channel,
        address: str,
        phy: PhyParams,
        *,
        coordinator_address: str = "ap",
        rate_mbps: float = 11.0,
        queue_capacity: int = 100,
    ) -> None:
        self.sim = sim
        self.channel = channel
        self.address = address
        self.phy = phy
        self.coordinator_address = coordinator_address
        self.rate_mbps = rate_mbps
        self.queue: List = []
        self.queue_capacity = queue_capacity
        self.dropped = 0
        self.rx_handler: Optional[Callable[[Frame], None]] = None
        self.polls_received = 0
        self.null_responses = 0
        self._rx_seen = {}
        channel.attach(self)

    # ------------------------------------------------------------------
    def enqueue(self, packet) -> bool:
        if len(self.queue) >= self.queue_capacity:
            self.dropped += 1
            return False
        self.queue.append(packet)
        return True

    def send(self, packet) -> bool:
        """Transport-facing alias matching :class:`repro.node.Station`."""
        packet.mac_dst = self.coordinator_address
        return self.enqueue(packet)

    # ------------------------------------------------------------------
    # channel listener interface
    # ------------------------------------------------------------------
    def on_frame_end(self, frame: Frame, corrupted: bool) -> None:
        if corrupted or frame.dst != self.address:
            return
        if frame.ftype is FrameType.POLL:
            self.polls_received += 1
            self.sim.schedule(
                self.phy.sifs_us, self._respond,
                priority=EventPriority.TX_START, category=EventCategory.MAC,
            )
        elif frame.is_data:
            self._ack_data(frame)
            last = self._rx_seen.get(frame.src)
            if last != frame.seq:
                self._rx_seen[frame.src] = frame.seq
                if self.rx_handler is not None:
                    self.rx_handler(frame)

    # ------------------------------------------------------------------
    def _respond(self) -> None:
        if self.queue:
            packet = self.queue.pop(0)
            frame = Frame(
                FrameType.DATA,
                self.address,
                self.coordinator_address,
                packet.size_bytes,
                self.rate_mbps,
                packet=packet,
            )
            duration = frame_airtime_us(self.phy, packet.size_bytes, self.rate_mbps)
        else:
            self.null_responses += 1
            frame = Frame(
                FrameType.CF_NULL,
                self.address,
                self.coordinator_address,
                CF_NULL_BYTES,
                ack_rate_for(self.phy, self.rate_mbps),
            )
            duration = ack_airtime_us(self.phy, frame.rate_mbps)
        self.channel.transmit(frame, duration)

    def _ack_data(self, data_frame: Frame) -> None:
        ack = Frame(
            FrameType.ACK,
            self.address,
            data_frame.src,
            ACK_BYTES,
            ack_rate_for(self.phy, data_frame.rate_mbps),
        )
        ack.acked_seq = data_frame.seq
        self.sim.schedule(
            self.phy.sifs_us,
            lambda: self.channel.transmit(
                ack, ack_airtime_us(self.phy, ack.rate_mbps)
            ),
            priority=EventPriority.TX_START,
            category=EventCategory.MAC,
        )


class PollingCoordinator:
    """The point coordinator: PIFS-paced downlink + polling loop."""

    def __init__(
        self,
        sim: Simulator,
        channel: Channel,
        scheduler: ApScheduler,
        phy: PhyParams,
        poll_policy,
        *,
        address: str = "ap",
        default_rate_mbps: float = 11.0,
    ) -> None:
        self.sim = sim
        self.channel = channel
        self.scheduler = scheduler
        self.phy = phy
        self.policy = poll_policy
        self.address = address
        self.default_rate_mbps = default_rate_mbps
        self.rx_handler: Optional[Callable[[Frame], None]] = None
        self.polls_sent = 0
        self.idle_cycles = 0
        self._pending_downlink: Optional[Frame] = None
        self._awaiting: Optional[str] = None  # "ack" | "response"
        self._timeout_event = None
        self._cycle_event = None
        self._poll_overhead_us = 0.0
        # A "turn" alternates downlink service and polling so neither
        # starves the other.
        self._poll_turn = False
        channel.attach(self)
        scheduler.bind(self)
        self._schedule_cycle(self.pifs_us)

    # ------------------------------------------------------------------
    @property
    def pifs_us(self) -> float:
        return self.phy.sifs_us + self.phy.slot_us

    def rate_for(self, station: str) -> float:
        return self.default_rate_mbps

    def notify_pending(self) -> None:
        """TxScheduler wake-up hook (parity with DcfMac)."""
        if self._cycle_event is None and self._awaiting is None:
            self._schedule_cycle(self.pifs_us)

    # ------------------------------------------------------------------
    # the coordination loop
    # ------------------------------------------------------------------
    def _schedule_cycle(self, delay: float) -> None:
        if self._cycle_event is not None:
            self._cycle_event.cancel()
        self._cycle_event = self.sim.schedule(
            delay, self._cycle,
            priority=EventPriority.TX_START, category=EventCategory.MAC,
        )

    def _cycle(self) -> None:
        self._cycle_event = None
        if self._awaiting is not None:
            return  # an exchange is in progress; its end resumes us
        if self.channel.busy:
            self._schedule_cycle(self.pifs_us)
            return
        first = "poll" if self._poll_turn else "down"
        self._poll_turn = not self._poll_turn
        for action in (first, "poll" if first == "down" else "down"):
            if action == "down" and self._try_downlink():
                return
            if action == "poll" and self._try_poll():
                return
        # Nothing to do: idle one PIFS and look again.
        self.idle_cycles += 1
        self._schedule_cycle(self.pifs_us)

    def _try_downlink(self) -> bool:
        packet = self.scheduler.dequeue()
        if packet is None:
            return False
        rate = self.rate_for(packet.station)
        frame = Frame(
            FrameType.DATA, self.address, packet.station,
            packet.size_bytes, rate, packet=packet,
        )
        duration = frame_airtime_us(self.phy, packet.size_bytes, rate)
        self._pending_downlink = frame
        self._awaiting = "ack"
        self.channel.transmit(frame, duration)
        self._arm_timeout(
            duration + self.phy.sifs_us + self.phy.slot_us
            + ack_airtime_us(self.phy, min(self.phy.basic_rates))
        )
        return True

    def _try_poll(self) -> bool:
        station = self.policy.next_station()
        if station is None:
            return False
        poll_rate = min(self.phy.basic_rates)
        frame = Frame(FrameType.POLL, self.address, station, POLL_BYTES, poll_rate)
        self.polls_sent += 1
        duration = frame_airtime_us(
            self.phy, POLL_BYTES, poll_rate, include_llc=False
        )
        self._poll_overhead_us = duration + self.phy.sifs_us
        self._awaiting = "response"
        self.channel.transmit(frame, duration)
        # Worst case response: a max-size frame at the lowest rate; the
        # timeout only needs to catch *absence* of a response, which we
        # detect one slot after the response would have started.
        self._arm_timeout(duration + self.phy.sifs_us + self.phy.slot_us + 1.0)
        return True

    def _arm_timeout(self, delay: float) -> None:
        if self._timeout_event is not None:
            self._timeout_event.cancel()
        self._timeout_event = self.sim.schedule(
            delay, self._on_timeout,
            priority=EventPriority.HIGH, category=EventCategory.MAC,
        )

    def _on_timeout(self) -> None:
        self._timeout_event = None
        if self._awaiting is None:
            return
        if self.channel.busy:
            # A response is in the air; its frame-end will resume us.
            return
        if self._awaiting == "ack" and self._pending_downlink is not None:
            # Downlink data unacked: report the loss and move on (PCF
            # retries are left to upper layers in this model).
            frame = self._pending_downlink
            self._complete_downlink(frame, success=False)
        self._awaiting = None
        self._pending_downlink = None
        self._schedule_cycle(self.pifs_us)

    # ------------------------------------------------------------------
    # channel listener interface
    # ------------------------------------------------------------------
    def on_frame_end(self, frame: Frame, corrupted: bool) -> None:
        if frame.dst != self.address:
            return
        if corrupted:
            # Could not decode a frame addressed to us.  If we were
            # waiting on it, give up on this exchange and move on (the
            # pre-armed timeout may already have fired while the frame
            # was in the air, so resume explicitly).
            if self._awaiting is not None:
                if self._awaiting == "ack" and self._pending_downlink is not None:
                    self._complete_downlink(
                        self._pending_downlink, success=False
                    )
                self._awaiting = None
                self._pending_downlink = None
                if self._timeout_event is not None:
                    self._timeout_event.cancel()
                    self._timeout_event = None
                self._schedule_cycle(self.pifs_us)
            return
        if self._awaiting == "ack" and frame.is_ack:
            if self._timeout_event is not None:
                self._timeout_event.cancel()
                self._timeout_event = None
            pending = self._pending_downlink
            self._pending_downlink = None
            self._awaiting = None
            if pending is not None:
                ack_dur = ack_airtime_us(self.phy, frame.rate_mbps)
                self._complete_downlink(
                    pending, success=True, ack_airtime=ack_dur
                )
            self._schedule_cycle(self.pifs_us)
            return
        if self._awaiting == "response" and frame.ftype in (
            FrameType.DATA, FrameType.CF_NULL,
        ):
            if self._timeout_event is not None:
                self._timeout_event.cancel()
                self._timeout_event = None
            self._awaiting = None
            if frame.is_data:
                self._complete_uplink(frame)
                # The station expects a MAC ACK.
                self._send_ack(frame)
                return  # cycle resumes after the ACK's frame end (we
                # schedule it below in _send_ack's completion)
            self._schedule_cycle(self.pifs_us)

    # ------------------------------------------------------------------
    def _send_ack(self, data_frame: Frame) -> None:
        ack = Frame(
            FrameType.ACK, self.address, data_frame.src, ACK_BYTES,
            ack_rate_for(self.phy, data_frame.rate_mbps),
        )
        ack.acked_seq = data_frame.seq
        duration = ack_airtime_us(self.phy, ack.rate_mbps)

        def transmit_and_resume():
            self.channel.transmit(ack, duration)
            self._schedule_cycle(duration + self.pifs_us)

        self.sim.schedule(
            self.phy.sifs_us, transmit_and_resume,
            priority=EventPriority.TX_START, category=EventCategory.MAC,
        )

    def _complete_downlink(
        self, frame: Frame, *, success: bool, ack_airtime: float = 0.0
    ) -> None:
        airtime = (
            self.pifs_us
            + frame_airtime_us(self.phy, frame.size_bytes, frame.rate_mbps)
            + (self.phy.sifs_us + ack_airtime if success else 0.0)
        )
        self.scheduler.on_complete(
            frame.packet, airtime, success, 1, frame.rate_mbps
        )

    def _complete_uplink(self, frame: Frame) -> None:
        data = frame_airtime_us(self.phy, frame.size_bytes, frame.rate_mbps)
        ack = ack_airtime_us(self.phy, ack_rate_for(self.phy, frame.rate_mbps))
        est = self._poll_overhead_us + data + self.phy.sifs_us + ack
        self.scheduler.on_uplink_complete(
            frame.src, est, payload_bytes=frame.size_bytes
        )
        if self.rx_handler is not None:
            self.rx_handler(frame)

    # TxScheduler protocol stubs (the coordinator *is* the MAC here).
    def bind(self, mac) -> None:  # pragma: no cover - unused direction
        pass
