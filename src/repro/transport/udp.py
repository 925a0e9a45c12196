"""UDP: constant-bit-rate and saturating senders, and a counting sink.

The paper uses saturating unicast UDP for Figure 4 (three nodes at
11 Mbps) and for the EXP-1 rate-adaptation experiment (a wired sender
blasting four receivers).  A CBR source with a rate above channel
capacity saturates the AP queue the same way the paper's generator did.

Two source flavours share the same pacing model (fixed interval plus a
small uniform jitter, same RNG stream layout):

* :class:`UdpSender` — the classic timer-driven source: one kernel
  event per packet *plus* whatever the transmit path costs.  Used for
  uplink flows, where the packet goes straight into the station's MAC
  queue.
* :class:`UdpDownlinkSource` — the demand-driven source for wired
  downlink flows.  It never schedules its own timer: it *is* its
  arrival schedule, a :class:`~repro.transport.wired.Pacing` record
  attached to the :class:`~repro.transport.wired.WiredLink` pump, which
  advances it in place and charges exactly one kernel event per
  *observable* arrival (the delivery of an admitted packet, or of a
  tail drop that ties with or follows the next thing that can run;
  drops nothing can observe are accounted inline, see "Draining" in
  ``wired.py``).  Either way a refusal costs the scheduler's one
  ``refuse`` call, and the source materializes a packet only when the
  AP queue has admitted it (drop-before-alloc, pooled packets).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from repro.sim import EventCategory, EventPriority, Simulator
from repro.transport.packet import Packet
from repro.transport.stats import FlowStats
from repro.transport.wired import Pacing


@dataclass
class UdpDatagram:
    """Payload rider for UDP packets."""

    seq: int
    ts_us: float


class UdpSender:
    """Paced constant-bit-rate UDP source (timer-driven).

    ``rate_mbps`` is the *network-layer* rate (packet size includes the
    28-byte UDP/IP header by convention of ``payload_bytes``).  Set the
    rate above the channel capacity to model a saturating source.
    """

    HEADER_BYTES = 28

    def __init__(
        self,
        sim: Simulator,
        name: str,
        tx: Callable[[int, object], None],
        rate_mbps: float,
        payload_bytes: int = 1472,
        *,
        start_us: float = 0.0,
        stop_us: Optional[float] = None,
        jitter_fraction: float = 0.05,
    ) -> None:
        if rate_mbps <= 0:
            raise ValueError("rate must be positive")
        if payload_bytes <= 0:
            raise ValueError("payload must be positive")
        if not 0.0 <= jitter_fraction < 1.0:
            raise ValueError("jitter_fraction must be in [0, 1)")
        self.sim = sim
        self.name = name
        self.tx = tx
        self.rate_mbps = rate_mbps
        self.payload_bytes = payload_bytes
        self.packet_bytes = payload_bytes + self.HEADER_BYTES
        self.stop_us = stop_us
        self.sent = 0
        self._seq = 0
        self.interval_us = self.packet_bytes * 8.0 / rate_mbps
        # Real CBR sources are not phase-locked to each other; a little
        # inter-packet jitter prevents artificial drop synchronization
        # at shared queues (the long-term rate is unchanged).
        self.jitter_fraction = jitter_fraction
        self._rng = sim.rng(f"udp/{name}")
        self._timer = sim.schedule(
            start_us + self._rng.uniform(0.0, self.interval_us),
            self._fire,
            priority=EventPriority.NORMAL,
            category=EventCategory.TRAFFIC,
        )

    def _next_interval(self) -> float:
        if self.jitter_fraction <= 0.0:
            return self.interval_us
        spread = self.interval_us * self.jitter_fraction
        return self.interval_us + self._rng.uniform(-spread, spread)

    def _fire(self) -> None:
        sim = self.sim
        now = sim.now
        if self.stop_us is not None and now >= self.stop_us:
            self._timer = None
            return
        seq = self._seq + 1
        self._seq = seq
        self.sent += 1
        self.tx(self.packet_bytes, UdpDatagram(seq, now))
        # The tx callback may have called stop() on us (a sink reacting
        # to this very datagram).  Re-check before re-arming: stop()
        # already cleared self._timer, and blindly rescheduling here
        # would leave a live ghost timer nobody can cancel.
        if self.stop_us is not None and now >= self.stop_us:
            self._timer = None
            return
        self._timer = sim.schedule(
            self._next_interval(), self._fire,
            priority=EventPriority.NORMAL,
            category=EventCategory.TRAFFIC,
        )

    def stop(self) -> None:
        self.stop_us = self.sim.now
        if self._timer is not None:
            self.sim.cancel(self._timer)
            self._timer = None


class UdpDownlinkSource(Pacing):
    """Demand-driven CBR source feeding an AP's downlink wire.

    The pacing model (interval, jitter, RNG stream ``udp/{name}``,
    initial phase draw) is identical to :class:`UdpSender`, so the two
    produce bit-identical fire schedules for the same seed and name.
    The difference is mechanical: instead of waking per packet, the
    source *is* its schedule — a :class:`~repro.transport.wired.Pacing`
    record handed to the wire's demand pump
    (:meth:`WiredLink.attach_source`), which advances it in place as it
    folds arrivals into the pipe and calls the source back only for
    the consumer:

    * ``refuse()`` — for every arrival that exits the pipe, in its
      pump event or drained inline: the AP's queue decides *before any
      allocation* whether the packet exists at all.  It is the AP
      scheduler's own ``refuse`` bound to this station, so a tail drop
      (or a refusal for a departed station) costs one Python call, and
      one that nothing can observe before the next kernel event has no
      event of its own;
    * :meth:`deliver` — only for an arrival ``refuse()`` admitted: the
      packet comes from the AP's
      :class:`~repro.transport.packet.PacketPool` and is enqueued.
    """

    HEADER_BYTES = UdpSender.HEADER_BYTES

    def __init__(
        self,
        sim: Simulator,
        name: str,
        ap,
        station: str,
        rate_mbps: float,
        payload_bytes: int = 1472,
        *,
        on_receive: Optional[Callable[[Packet], None]] = None,
        start_us: float = 0.0,
        stop_us: Optional[float] = None,
        jitter_fraction: float = 0.05,
    ) -> None:
        if rate_mbps <= 0:
            raise ValueError("rate must be positive")
        if payload_bytes <= 0:
            raise ValueError("payload must be positive")
        if not 0.0 <= jitter_fraction < 1.0:
            raise ValueError("jitter_fraction must be in [0, 1)")
        packet_bytes = payload_bytes + self.HEADER_BYTES
        interval_us = packet_bytes * 8.0 / rate_mbps
        rng = sim.rng(f"udp/{name}")
        # The first fire: the same float expression as UdpSender's
        # initial schedule(start + draw), now + (s + d).
        super().__init__(
            sim.now + (start_us + rng.uniform(0.0, interval_us)),
            interval_us,
            packet_bytes,
            jitter_us=interval_us * jitter_fraction,
            random=rng.random if jitter_fraction > 0.0 else None,
            stop_us=stop_us,
        )
        self.sim = sim
        self.station = station
        self.ap = ap
        self.on_receive = on_receive
        self.refuse = partial(ap.scheduler.refuse, station)
        self.link = ap.downlink_wire
        self.link.attach_source(self)

    def deliver(self, seq: int, fire_us: float) -> None:
        """Arrival ``seq`` (fired at ``fire_us``), admitted by
        ``refuse()``, exits the wire: build or recycle its packet —
        every field overwritten, so pooled reuse cannot leak state
        across flows — and enqueue it."""
        ap = self.ap
        pool = ap.packet_pool
        packet = pool.get()
        if packet is None:
            packet = Packet(
                self.packet_bytes,
                self.station,
                to_station=True,
                payload=UdpDatagram(seq, fire_us),
                on_receive=self.on_receive,
                created_us=fire_us,
            )
        else:
            packet.size_bytes = self.packet_bytes
            packet.station = self.station
            packet.to_station = True
            packet.on_receive = self.on_receive
            packet.created_us = fire_us
            payload = packet.payload
            if type(payload) is UdpDatagram:
                payload.seq = seq
                payload.ts_us = fire_us
            else:
                packet.payload = UdpDatagram(seq, fire_us)
        packet._pool = pool
        packet.mac_dst = self.station
        ap.scheduler.enqueue(packet)

    def stop(self) -> None:
        """Cancel all arrivals from the current time on (deterministic:
        an arrival whose fire time equals the stop time never fires,
        regardless of event ordering)."""
        now = self.sim.now
        if self.stop_us is None or self.stop_us > now:
            self.stop_us = now
        self.link.source_stopped(self)


class UdpSink:
    """Counts delivered datagrams into a :class:`FlowStats`."""

    TIME_STATE = dict(
        counters=("received",),
        phase={"last_seq": "follows the source's _seq, which does not jump"},
    )

    def __init__(self, stats: Optional[FlowStats] = None) -> None:
        self.stats = stats
        self.received = 0
        self.last_seq = 0
        self.reordered = 0

    def on_datagram(self, datagram: UdpDatagram, size_bytes: int) -> None:
        self.received += 1
        if datagram.seq < self.last_seq:
            self.reordered += 1
        self.last_seq = max(self.last_seq, datagram.seq)
        if self.stats is not None:
            self.stats.on_deliver(size_bytes)
            self.stats.on_delay(self.stats.sim.now - datagram.ts_us)
