"""A compact TCP Reno/NewReno implementation.

Fidelity targets (what the paper's experiments actually exercise):

* **ack clocking** — data segments are paced by returning ACKs, and for
  uplink flows those ACKs traverse the AP's downlink queue, which is how
  TBR regulates uplink TCP without client cooperation (Section 4.1);
* **congestion control** — slow start, congestion avoidance, fast
  retransmit/recovery with NewReno partial-ack handling, and RTO with
  exponential backoff, so AP queue drops shape the sending rate as on a
  real network;
* **delayed ACKs** — ack-every-2 with a timeout, which sets the data:ack
  airtime ratio that the measured baseline throughputs (Table 2) embed.

Sequence space is bytes; data is synthetic (only offsets travel).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.sim import EventCategory, EventPriority, Simulator
from repro.transport.stats import FlowStats


@dataclass
class TcpParams:
    """TCP tunables (defaults model a 2004-era bulk-transfer stack)."""

    mss: int = 1460
    header_bytes: int = 40
    ack_bytes: int = 40
    init_cwnd_segments: float = 2.0
    init_ssthresh_segments: float = 64.0
    rwnd_segments: int = 44
    delack_segments: int = 2
    delack_timeout_us: float = 50_000.0
    #: RFC 6298's 1-second floor.  Queueing delay at a saturated AP
    #: reaches hundreds of ms; a lower floor sits inside the RTT and
    #: causes spurious-timeout collapse spirals.
    min_rto_us: float = 1_000_000.0
    max_rto_us: float = 5_000_000.0
    initial_rto_us: float = 1_000_000.0

    def __post_init__(self) -> None:
        if self.mss <= 0:
            raise ValueError("mss must be positive")
        if self.rwnd_segments < 1:
            raise ValueError("rwnd must be at least one segment")
        if self.delack_segments < 1:
            raise ValueError("delack_segments must be >= 1")


@dataclass
class TcpSegment:
    """Data segment payload (rides inside a Packet)."""

    seq: int
    length: int
    ts_us: float
    retransmitted: bool = False


@dataclass
class TcpAck:
    """Cumulative acknowledgement payload."""

    ackno: int
    ts_echo_us: float = 0.0


class TcpSender:
    """The sending half of a TCP connection.

    ``tx(size_bytes, payload)`` is supplied by the node layer and routes
    a packet of ``size_bytes`` toward the receiver.  The application
    feeds bytes with :meth:`supply` (or marks the stream unbounded).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        tx: Callable[[int, object], None],
        params: Optional[TcpParams] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.tx = tx
        self.params = params if params is not None else TcpParams()
        p = self.params

        self.snd_una = 0
        self.snd_nxt = 0
        self.cwnd = p.init_cwnd_segments * p.mss
        self.ssthresh = p.init_ssthresh_segments * p.mss
        self.dupacks = 0
        self.in_recovery = False
        self.recover = 0

        #: None = unbounded (bulk); else byte limit supplied by the app.
        self.app_limit: Optional[int] = 0
        self.app_finished = False
        self.on_complete: Optional[Callable[[], None]] = None
        self._complete_fired = False

        # RTT estimation (RFC 6298 style).
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = p.initial_rto_us
        self._rto_event = None
        self._send_times: Dict[int, TcpSegment] = {}

        # Counters for tests/diagnostics.
        self.retransmits = 0
        self.timeouts = 0
        self.fast_retransmits = 0

    # ------------------------------------------------------------------
    # application interface
    # ------------------------------------------------------------------
    def set_unbounded(self) -> None:
        """Bulk mode: infinite data."""
        self.app_limit = None
        self._maybe_send()

    def supply(self, nbytes: int) -> None:
        """Make ``nbytes`` more application bytes available to send."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if self.app_limit is None:
            return
        self.app_limit += nbytes
        self._maybe_send()

    def finish(self) -> None:
        """The app will supply no more data; completion fires when all
        supplied bytes are acked."""
        self.app_finished = True
        self._check_complete()

    @property
    def flight_size(self) -> int:
        return self.snd_nxt - self.snd_una

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def _window(self) -> float:
        p = self.params
        return min(self.cwnd, p.rwnd_segments * p.mss)

    def _maybe_send(self) -> None:
        p = self.params
        while True:
            if self.flight_size + p.mss > self._window() + 1e-9:
                return
            if self.app_limit is not None:
                remaining = self.app_limit - self.snd_nxt
                if remaining <= 0:
                    return
                length = min(p.mss, remaining)
            else:
                length = p.mss
            self._send_segment(self.snd_nxt, length, retransmission=False)
            self.snd_nxt += length

    def _send_segment(self, seq: int, length: int, *, retransmission: bool) -> None:
        seg = TcpSegment(seq, length, self.sim.now, retransmitted=retransmission)
        if not retransmission:
            self._send_times[seq] = seg
        else:
            old = self._send_times.get(seq)
            if old is not None:
                old.retransmitted = True
            self.retransmits += 1
        self.tx(length + self.params.header_bytes, seg)
        if self._rto_event is None:
            self._arm_rto()

    # ------------------------------------------------------------------
    # acknowledgements
    # ------------------------------------------------------------------
    def on_ack(self, ack: TcpAck) -> None:
        p = self.params
        if ack.ackno > self.snd_una:
            acked = ack.ackno - self.snd_una
            self._sample_rtt(ack)
            self._drop_send_times(ack.ackno)
            self.snd_una = ack.ackno
            if self.in_recovery:
                if ack.ackno >= self.recover:
                    # Full ack: leave recovery.
                    self.in_recovery = False
                    self.cwnd = self.ssthresh
                    self.dupacks = 0
                else:
                    # NewReno partial ack: retransmit next hole, deflate.
                    self._send_segment(
                        self.snd_una,
                        min(p.mss, self.snd_nxt - self.snd_una),
                        retransmission=True,
                    )
                    self.cwnd = max(p.mss, self.cwnd - acked + p.mss)
            else:
                self.dupacks = 0
                if self.cwnd < self.ssthresh:
                    self.cwnd += min(acked, p.mss)  # slow start
                else:
                    self.cwnd += p.mss * p.mss / self.cwnd  # AIMD
            self._restart_rto()
            self._check_complete()
            self._maybe_send()
            return

        # Duplicate ack.
        if self.flight_size == 0:
            return
        self.dupacks += 1
        if self.in_recovery:
            self.cwnd += p.mss  # inflate per extra dupack
            self._maybe_send()
        elif self.dupacks == 3:
            self._enter_fast_recovery()

    def _enter_fast_recovery(self) -> None:
        p = self.params
        self.ssthresh = max(self.flight_size / 2.0, 2.0 * p.mss)
        self.recover = self.snd_nxt
        self.in_recovery = True
        self.fast_retransmits += 1
        self.cwnd = self.ssthresh + 3 * p.mss
        self._send_segment(
            self.snd_una,
            min(p.mss, self.snd_nxt - self.snd_una),
            retransmission=True,
        )
        self._restart_rto()

    # ------------------------------------------------------------------
    # RTT / RTO
    # ------------------------------------------------------------------
    def _sample_rtt(self, ack: TcpAck) -> None:
        if ack.ts_echo_us <= 0:
            return
        # Karn's rule: the echoed timestamp comes from a segment the
        # receiver saw; discard samples spanning a retransmitted range.
        seg = None
        for seq, candidate in self._send_times.items():
            if seq < ack.ackno and candidate.ts_us == ack.ts_echo_us:
                seg = candidate
                break
        if seg is not None and seg.retransmitted:
            return
        rtt = self.sim.now - ack.ts_echo_us
        if rtt <= 0:
            return
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - rtt)
            self.srtt = 0.875 * self.srtt + 0.125 * rtt
        p = self.params
        self.rto = min(
            max(self.srtt + 4.0 * self.rttvar, p.min_rto_us), p.max_rto_us
        )

    def _drop_send_times(self, ackno: int) -> None:
        for seq in [s for s in self._send_times if s < ackno]:
            del self._send_times[seq]

    def _arm_rto(self) -> None:
        self._rto_event = self.sim.schedule(
            self.rto, self._on_rto,
            priority=EventPriority.LOW, category=EventCategory.TRAFFIC,
        )

    def _restart_rto(self) -> None:
        if self._rto_event is not None:
            self.sim.cancel(self._rto_event)
            self._rto_event = None
        if self.flight_size > 0:
            self._arm_rto()

    def _on_rto(self) -> None:
        self._rto_event = None
        if self.flight_size == 0:
            return
        p = self.params
        self.timeouts += 1
        self.ssthresh = max(self.flight_size / 2.0, 2.0 * p.mss)
        self.cwnd = float(p.mss)
        self.dupacks = 0
        self.in_recovery = False
        self.rto = min(self.rto * 2.0, p.max_rto_us)
        self._send_segment(
            self.snd_una,
            min(p.mss, self.snd_nxt - self.snd_una),
            retransmission=True,
        )
        self._arm_rto()

    # ------------------------------------------------------------------
    def _check_complete(self) -> None:
        if (
            not self._complete_fired
            and self.app_finished
            and self.app_limit is not None
            and self.snd_una >= self.app_limit
            and self.on_complete is not None
        ):
            self._complete_fired = True
            if self._rto_event is not None:
                self.sim.cancel(self._rto_event)
                self._rto_event = None
            self.on_complete()


class TcpReceiver:
    """The receiving half: cumulative + delayed ACKs, reorder buffer."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        tx_ack: Callable[[int, object], None],
        params: Optional[TcpParams] = None,
        stats: Optional[FlowStats] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.tx_ack = tx_ack
        self.params = params if params is not None else TcpParams()
        self.stats = stats

        self.rcv_nxt = 0
        self._ooo: Dict[int, int] = {}  # seq -> length
        self._pending_acks = 0
        self._delack_event = None
        self._last_ts = 0.0

        self.acks_sent = 0
        self.duplicates = 0

    def on_segment(self, seg: TcpSegment) -> None:
        if seg.seq == self.rcv_nxt:
            self.rcv_nxt += seg.length
            delivered = seg.length
            self._last_ts = seg.ts_us
            if self.stats is not None and not seg.retransmitted:
                self.stats.on_delay(max(0.0, self.sim.now - seg.ts_us))
            # Absorb any buffered continuation.
            while self.rcv_nxt in self._ooo:
                length = self._ooo.pop(self.rcv_nxt)
                self.rcv_nxt += length
                delivered += length
            if self.stats is not None:
                self.stats.on_deliver(delivered)
            self._pending_acks += 1
            if self._pending_acks >= self.params.delack_segments or self._ooo:
                self._send_ack()
            else:
                self._arm_delack()
        elif seg.seq > self.rcv_nxt:
            self._ooo.setdefault(seg.seq, seg.length)
            self._send_ack()  # duplicate ack advertising the hole
        else:
            self.duplicates += 1
            self._send_ack()

    def _arm_delack(self) -> None:
        if self._delack_event is None:
            self._delack_event = self.sim.schedule(
                self.params.delack_timeout_us,
                self._delack_fire,
                priority=EventPriority.LOW,
                category=EventCategory.TRAFFIC,
            )

    def _delack_fire(self) -> None:
        self._delack_event = None
        if self._pending_acks > 0:
            self._send_ack()

    def _send_ack(self) -> None:
        if self._delack_event is not None:
            self.sim.cancel(self._delack_event)
            self._delack_event = None
        self._pending_acks = 0
        self.acks_sent += 1
        ack = TcpAck(self.rcv_nxt, self._last_ts)
        self.tx_ack(self.params.ack_bytes, ack)
