"""A PCF-style polling MAC (point coordination) for uplink traffic.

The paper (Section 4.1): "if the underlying MAC protocol employs a
polling mechanism (such as 802.11's PCF), no explicit communication is
necessary since TBR can dictate which node gets polled."  This module
provides that substrate:

* a :class:`PollingCoordinator` at the AP owns the medium.  After each
  exchange it waits PIFS (= SIFS + one slot, beating any DCF
  contender) and polls the station its policy names, or idles one
  PIFS when the policy names none;
* a :class:`PolledStation` never contends.  When polled it answers
  after SIFS with one data frame from its queue (or a CF-NULL when
  empty), which the coordinator ACKs;
* the *poll policy* decides who is polled next.
  :class:`RoundRobinPollPolicy` gives DCF-like equal opportunities;
  :class:`TokenPollPolicy` consults a TBR scheduler's buckets and polls
  only token-positive stations — time-based fairness for uplink UDP
  with completely unmodified clients.

Each delivered uplink exchange is reported to the AP's
:class:`repro.queueing.ApScheduler` through ``on_uplink_complete``,
exactly like the DCF AP, so TBR charges the polled station's tokens.
A response that never comes, or arrives corrupted, ends the exchange
and the loop polls on; there are no PCF-level retries.
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

#: The coordinator's MAC address, which every polled station answers.
COORDINATOR = "ap"
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

    When every station is starved it names none, so the coordinator
    idles until a FILLEVENT refills a bucket: the strict Figure 6
    dequeue, applied to polls.
    """

    def __init__(self, tbr) -> None:
        self.tbr = tbr
        self.stations: List[str] = []
        self._index = 0

    def register(self, station: str) -> None:
        if station not in self.stations:
            self.stations.append(station)
        self.tbr.associate(station)

    def next_station(self) -> Optional[str]:
        n = len(self.stations)
        for offset in range(n):
            idx = (self._index + offset) % n
            station = self.stations[idx]
            if not self.tbr.station_starved(station):
                self._index = (idx + 1) % n
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
        rate_mbps: float = 11.0,
        queue_capacity: int = 100,
    ) -> None:
        self.sim = sim
        self.channel = channel
        self.address = address
        self.phy = phy
        self.rate_mbps = rate_mbps
        self.queue: List = []
        self.queue_capacity = queue_capacity
        self.dropped = 0
        self.polls_received = 0
        self.null_responses = 0
        channel.attach(self)

    # ------------------------------------------------------------------
    def enqueue(self, packet) -> bool:
        if len(self.queue) >= self.queue_capacity:
            self.dropped += 1
            return False
        self.queue.append(packet)
        return True

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

    # ------------------------------------------------------------------
    def _respond(self) -> None:
        if self.queue:
            packet = self.queue.pop(0)
            frame = Frame(
                FrameType.DATA,
                self.address,
                COORDINATOR,
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
                COORDINATOR,
                CF_NULL_BYTES,
                ack_rate_for(self.phy, self.rate_mbps),
            )
            duration = ack_airtime_us(self.phy, frame.rate_mbps)
        self.channel.transmit(frame, duration)


class PollingCoordinator:
    """The point coordinator: a PIFS-paced uplink polling loop."""

    def __init__(
        self,
        sim: Simulator,
        channel: Channel,
        scheduler: ApScheduler,
        phy: PhyParams,
        poll_policy,
    ) -> None:
        self.sim = sim
        self.channel = channel
        self.scheduler = scheduler
        self.phy = phy
        self.policy = poll_policy
        self.address = COORDINATOR
        self.rx_handler: Optional[Callable[[Frame], None]] = None
        self.polls_sent = 0
        self.idle_cycles = 0
        self._awaiting = False  # a poll is out, its response not yet in
        self._timeout_event = None
        self._cycle_event = None
        self._poll_overhead_us = 0.0
        channel.attach(self)
        self._schedule_cycle(self.pifs_us)

    # ------------------------------------------------------------------
    @property
    def pifs_us(self) -> float:
        return self.phy.sifs_us + self.phy.slot_us

    # ------------------------------------------------------------------
    # the coordination loop
    # ------------------------------------------------------------------
    def _schedule_cycle(self, delay: float) -> None:
        if self._cycle_event is not None:
            self.sim.cancel(self._cycle_event)
        self._cycle_event = self.sim.schedule(
            delay, self._cycle,
            priority=EventPriority.TX_START, category=EventCategory.MAC,
        )

    def _cycle(self) -> None:
        self._cycle_event = None
        if self._awaiting:
            return  # an exchange is in progress; its end resumes us
        if self.channel.busy:
            self._schedule_cycle(self.pifs_us)
            return
        if self._try_poll():
            return
        # Nobody to poll: idle one PIFS and look again.
        self.idle_cycles += 1
        self._schedule_cycle(self.pifs_us)

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
        self._awaiting = True
        self.channel.transmit(frame, duration)
        # Worst case response: a max-size frame at the lowest rate; the
        # timeout only needs to catch *absence* of a response, which we
        # detect one slot after the response would have started.
        self._arm_timeout(duration + self.phy.sifs_us + self.phy.slot_us + 1.0)
        return True

    def _arm_timeout(self, delay: float) -> None:
        if self._timeout_event is not None:
            self.sim.cancel(self._timeout_event)
        self._timeout_event = self.sim.schedule(
            delay, self._on_timeout,
            priority=EventPriority.HIGH, category=EventCategory.MAC,
        )

    def _on_timeout(self) -> None:
        self._timeout_event = None
        if not self._awaiting:
            return
        if self.channel.busy:
            # A response is in the air; its frame-end will resume us.
            return
        self._awaiting = False
        self._schedule_cycle(self.pifs_us)

    def _end_exchange(self) -> None:
        """The awaited response arrived (decoded or not): stop waiting."""
        if self._timeout_event is not None:
            self.sim.cancel(self._timeout_event)
            self._timeout_event = None
        self._awaiting = False

    # ------------------------------------------------------------------
    # channel listener interface
    # ------------------------------------------------------------------
    def on_frame_end(self, frame: Frame, corrupted: bool) -> None:
        if frame.dst != self.address or not self._awaiting:
            return
        if corrupted:
            # Could not decode the response: give up on this exchange
            # and move on (the pre-armed timeout may already have fired
            # while the frame was in the air, so resume explicitly).
            self._end_exchange()
            self._schedule_cycle(self.pifs_us)
            return
        if frame.is_data:
            self._end_exchange()
            self._complete_uplink(frame)
            # The station expects a MAC ACK; the cycle resumes after it.
            self._send_ack(frame)
        elif frame.ftype is FrameType.CF_NULL:
            self._end_exchange()
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

    def _complete_uplink(self, frame: Frame) -> None:
        data = frame_airtime_us(self.phy, frame.size_bytes, frame.rate_mbps)
        ack = ack_airtime_us(self.phy, ack_rate_for(self.phy, frame.rate_mbps))
        est = self._poll_overhead_us + data + self.phy.sifs_us + ack
        self.scheduler.on_uplink_complete(
            frame.src, est, payload_bytes=frame.size_bytes
        )
        if self.rx_handler is not None:
            self.rx_handler(frame)
