"""DCF — the 802.11 Distributed Coordination Function.

This is a slot-accurate CSMA/CA implementation:

* **Defer**: a station with a frame waits for the medium to be idle for
  DIFS (EIFS after it observed a corrupted frame), then counts down a
  backoff of ``uniform(0, CW)`` slots, freezing whenever the medium goes
  busy and resuming after the next idle DIFS.
* **Immediate access**: if the medium has already been idle for DIFS
  when a frame arrives and no post-transmission backoff is in progress,
  the station transmits without backoff.
* **Slot-synchronous collisions**: two stations whose countdowns expire
  in the same slot both transmit; the busy notification carries the
  busy-start timestamp, and a countdown expiring exactly then is
  committed, so neither yields.
* **Acknowledgement**: the receiver of a clean unicast data frame
  replies with an ACK after SIFS; the sender retries on ACK timeout
  with binary-exponential CW growth up to ``max_attempts``, then drops.
* **Post-transmission backoff**: after every exchange the station runs
  a fresh backoff even with an empty queue (this is why a single 802.11
  sender cannot saturate the channel — the effect the paper points out
  under Figure 4).

The MAC pulls packets from a :class:`TxScheduler` — stations use a FIFO,
the AP plugs in round-robin/DRR or the paper's TBR.  A finished
exchange leaves the MAC one way: an :class:`ExchangeReport` with its
channel-occupancy time, handed to the completion listeners in order —
TBR's COMPLETEEVENT (subscribed first, by the AP), the usage ledger,
the AP's reaper and the fast-forward detector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Protocol

from repro.channel.medium import Channel
from repro.mac.frames import Frame, FrameType
from repro.phy.phy import (
    ACK_BYTES,
    PhyParams,
    ack_airtime_us,
    ack_rate_for,
    frame_airtime_us,
)
from repro.sim import EventCategory, EventPriority, Simulator
from repro.transport.packet import try_release

#: Tolerance when comparing event timestamps to busy-start timestamps.
_SLOT_EPS = 1e-6

#: Priorities and the category of the per-exchange schedule sites as
#: plain ``int``s (an ``IntEnum`` category costs the kernel an
#: ``__index__`` per executed event).
_PRIO_TX_START = int(EventPriority.TX_START)
_PRIO_HIGH = int(EventPriority.HIGH)
_CAT_MAC = int(EventCategory.MAC)


class TxScheduler(Protocol):
    """What the MAC needs from a transmit queue / scheduler: packets.
    (TBR's charge reads the completion listeners, like any consumer.)"""

    def bind(self, mac: "DcfMac") -> None:
        """Called once; the scheduler keeps the MAC to wake it later."""

    def dequeue(self) -> Any:
        """Return the next upper-layer packet to send, or ``None``.

        Returning ``None`` with backlogged-but-ineligible traffic is how
        TBR withholds packets from token-starved stations; the scheduler
        must later call ``mac.notify_pending()`` when eligibility
        changes.
        """


@dataclass
class MacConfig:
    """Tunables of the DCF state machine."""

    max_attempts: int = 7
    #: OAR-style opportunistic bursting (Sadeghi et al., the paper's
    #: related work [23]): when non-zero, a station that wins contention
    #: at rate ``d`` may send ``floor(d / burst_base_rate_mbps)`` frames
    #: back-to-back, SIFS-spaced — holding the channel for roughly the
    #: time one frame takes at the base rate.  0 disables bursting
    #: (standard DCF).
    burst_base_rate_mbps: float = 0.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.burst_base_rate_mbps < 0:
            raise ValueError("burst_base_rate_mbps must be >= 0")

    def burst_frames(self, rate_mbps: float) -> int:
        """Frames one contention win may send at ``rate_mbps``."""
        if self.burst_base_rate_mbps <= 0:
            return 1
        return max(1, int(rate_mbps / self.burst_base_rate_mbps))


@dataclass
class ExchangeReport:
    """Completion report for one data-frame exchange (all attempts);
    ``success=False``: the retry limit ran out and the frame dropped."""

    packet: Any
    dst: str
    success: bool
    attempts: int
    airtime_us: float


class DcfMac:
    """One station's (or the AP's) DCF entity."""

    #: ``_bo_anchor`` is the only absolute timestamp held outside the
    #: event heap; a jump (``repro.sim.steady``) shifts it so ``on_busy``'s
    #: elapsed-slot arithmetic matches the shifted countdown event.
    TIME_STATE = dict(
        clocks=("_bo_anchor",),
        counters=("tx_attempts", "tx_success", "rx_data_ok"),
        phase={
            "_airtime_accum": "the in-progress exchange resumes after the jump",
            "_attempts": "attempt number of the in-progress exchange",
            "_bo_slots": "remaining backoff of the in-progress countdown",
            "_rx_seen": "dedup keys: last frame sequence number per peer",
        },
    )

    def __init__(
        self,
        sim: Simulator,
        channel: Channel,
        address: str,
        phy: PhyParams,
        *,
        rate_provider: Callable[[str], float],
        config: Optional[MacConfig] = None,
    ) -> None:
        self.sim = sim
        self.channel = channel
        self.address = address
        self.phy = phy
        self.config = config if config is not None else MacConfig()
        #: the data rate toward a destination, asked per load and per
        #: attempt (rate control may step between attempts).
        self.rate_for = rate_provider
        self._rng = sim.rng(f"mac/{address}")
        # The three PHY constants the freeze/resume path reads per arm.
        self._slot_us = phy.slot_us
        self._difs_us = phy.difs_us
        self._eifs_us = phy.eifs_us()

        self.scheduler: Optional[TxScheduler] = None
        self.rx_handler: Optional[Callable[[Frame], None]] = None
        #: called in order with an :class:`ExchangeReport` after each exchange.
        self.completion_listeners: List[Callable[[ExchangeReport], None]] = []
        #: called as (dst, success) after *every* transmission attempt —
        #: ARF-style rate control reacts per attempt, so a failed probe
        #: steps back down before the retry goes out.
        self.attempt_listener: Optional[Callable[[str, bool], None]] = None
        #: called for every received ACK/data frame carrying a defer hint
        #: (TBR client cooperation, paper Section 4.1).
        self.defer_hint_handler: Optional[Callable[[float], None]] = None

        # Current outgoing frame.
        self._current: Optional[Frame] = None
        self._attempts = 0
        self._airtime_accum = 0.0
        self._cw = phy.cw_min

        # Backoff bookkeeping.  Carrier state (busy flag, idle-start
        # timestamp) is read off the channel at decision time instead of
        # being mirrored per-listener; the MAC subscribes to carrier
        # transitions only while a backoff is in progress, so the
        # channel skips notification work for non-contending nodes.
        self._bo_slots = 0
        self._bo_anchor = 0.0
        self._bo_event = None
        self._backoff_active = False

        # Pending ACK-response and ACK-timeout events.
        self._ack_tx_event = None
        self._ack_timeout_event = None
        self._awaiting_ack_for: Optional[Frame] = None
        self._transmitting = False
        #: the live Transmission handle while a data frame is on the air
        #: (lets shutdown(abort_in_flight=True) corrupt it in place).
        self._current_tx = None
        #: precomputed ACK-timeout tail: SIFS + slot + ACK airtime at
        #: the lowest basic rate (pure function of the PHY).
        self._ack_timeout_base = (
            phy.sifs_us
            + phy.slot_us
            + ack_airtime_us(phy, min(phy.basic_rates))
        )

        # OAR burst state: frames this contention win may still send,
        # and whether the loaded frame continues a burst (SIFS access).
        self._burst_remaining = 0
        self._burst_continuation = False
        # Guards _try_load while completion listeners run, so traffic
        # they enqueue synchronously cannot hijack a burst continuation.
        self._completing = False

        # EIFS flag: last observed frame was corrupted.
        self._use_eifs = False

        # Receiver-side dedup: last seq seen per source.
        self._rx_seen: Dict[str, int] = {}

        # Counters.
        self.tx_attempts = 0
        self.tx_success = 0
        self.tx_dropped = 0
        self.rx_data_ok = 0
        self.rx_duplicates = 0

        # Not contending yet: attach leaves us off carrier notifications
        # until a backoff is armed (see _start_backoff /
        # _countdown_expired), and hands us involved frames only (we are
        # destination, the frame was corrupted, or our EIFS flag needs
        # clearing).
        channel.attach(self)

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach_scheduler(self, scheduler: TxScheduler) -> None:
        self.scheduler = scheduler
        scheduler.bind(self)

    def add_completion_listener(
        self, listener: Callable[[ExchangeReport], None]
    ) -> None:
        self.completion_listeners.append(listener)

    def shutdown(self, *, abort_in_flight: bool = False) -> None:
        """Tear this MAC down (station disassociation / AP outage).

        Cancels every pending MAC event (backoff countdown, ACK
        response, ACK timeout), abandons the loaded frame — releasing a
        pooled packet back to its freelist — and detaches from the
        channel, so no further carrier or frame notifications reach
        this entity.  By default a frame this MAC already put on the
        air still ends normally at the channel (its peers observe the
        frame end); the exchange itself is simply never completed.
        With ``abort_in_flight=True`` (an ungraceful death: AP outage)
        the in-flight transmission is corrupted in place — the carrier
        still occupies the medium until the scheduled frame end, but
        nothing delivers, and the packet is reclaimed.  Idempotent.
        """
        if self._bo_event is not None:
            self.sim.cancel(self._bo_event)
            self._bo_event = None
        self._backoff_active = False
        self._bo_slots = 0
        if self._ack_timeout_event is not None:
            self.sim.cancel(self._ack_timeout_event)
            self._ack_timeout_event = None
        if self._ack_tx_event is not None:
            self.sim.cancel(self._ack_tx_event)
            self._ack_tx_event = None
            # The ACK was reserved (_schedule_ack) and will not be sent:
            # contenders held across the SIFS gap must resume now.
            self.channel.cancel_response()
        self._awaiting_ack_for = None
        self._burst_remaining = 0
        self._burst_continuation = False
        frame = self._current
        self._current = None
        aborted = False
        if abort_in_flight and self._transmitting and self._current_tx is not None:
            self.channel.abort(self._current_tx)
            aborted = True
        self._current_tx = None
        if frame is not None and frame.packet is not None and (
            not self._transmitting or aborted
        ):
            # A frame still on the air is delivered to its destination
            # at frame end — its packet must not be recycled under the
            # receiver; abandoning it to the GC is the safe loss.  An
            # *aborted* frame is corrupted at the channel and delivers
            # nowhere, so its packet is safe to reclaim.
            try_release(frame.packet)
        self._transmitting = False
        self.scheduler = None
        self.channel.detach(self)

    def restart(self) -> None:
        """Bring a shut-down MAC back on the air (AP outage recovery).

        Re-attaches to the channel with fresh contention state (CW at
        minimum, no EIFS debt, no loaded frame).  The receive dedup map
        survives: frame sequence numbers are globally unique, so stale
        entries can never mask fresh traffic, and keeping them means a
        data frame ACKed just before the outage is still recognized as
        a duplicate if the peer retries it after recovery.  A scheduler
        must be (re-)attached separately via :meth:`attach_scheduler`.
        """
        if self.channel.is_attached(self):
            return
        self._current = None
        self._current_tx = None
        self._attempts = 0
        self._airtime_accum = 0.0
        self._cw = self.phy.cw_min
        self._backoff_active = False
        self._bo_slots = 0
        self._transmitting = False
        self._awaiting_ack_for = None
        self._burst_remaining = 0
        self._burst_continuation = False
        self._completing = False
        self._use_eifs = False
        self.channel.attach(self)

    # ------------------------------------------------------------------
    # scheduler-facing API
    # ------------------------------------------------------------------
    def notify_pending(self) -> None:
        """The scheduler may now have an eligible packet; try to load it."""
        self._try_load()

    @property
    def busy_with_frame(self) -> bool:
        """True while a frame is loaded (contending, transmitting, waiting)."""
        return self._current is not None

    # ------------------------------------------------------------------
    # frame loading and contention
    # ------------------------------------------------------------------
    def _try_load(self) -> None:
        if self._current is not None or self.scheduler is None:
            return
        if self._completing:
            return  # _finish_exchange resumes loading when done
        packet = self.scheduler.dequeue()
        if packet is None:
            return
        dst = getattr(packet, "mac_dst")
        rate = self.rate_for(dst)
        frame = Frame(
            FrameType.DATA,
            self.address,
            dst,
            packet.size_bytes,
            rate,
            packet=packet,
        )
        self._current = frame
        self._attempts = 0
        self._airtime_accum = 0.0
        self._cw = self.phy.cw_min
        self._begin_access()

    def _begin_access(self) -> None:
        """Start the channel-access procedure for the loaded frame."""
        if self._backoff_active:
            # A (post-)backoff is already counting down; the frame will be
            # transmitted when it expires.
            return
        channel = self.channel
        if not channel.carrier_busy and (
            self.sim.now - channel.idle_start
        ) >= self._current_ifs():
            # Immediate access: idle for at least DIFS already.
            self._transmit_current()
            return
        self._start_backoff(draw=True)

    def _current_ifs(self) -> float:
        return self._eifs_us if self._use_eifs else self._difs_us

    def _start_backoff(self, *, draw: bool) -> None:
        """Arm a backoff countdown; draws a fresh slot count if asked."""
        if draw:
            self._bo_slots = self._rng.randint(0, self._cw)
        self._backoff_active = True
        self.channel.carrier_subscribe(self)
        if not self.channel.carrier_busy:
            self._arm_countdown(self.channel.idle_start)
        # else: countdown armed by on_idle.

    def _arm_countdown(self, idle_start: float) -> None:
        """Schedule the countdown expiry.

        The countdown begins once the medium has been idle for the
        current IFS.  When we arm a *fresh* backoff in the middle of a
        long-idle period, already-elapsed idle time does not pre-pay
        slots — the procedure starts now (802.11: the backoff procedure
        begins when it is invoked).  When resuming after busy, ``on_idle``
        calls us at the idle transition — or, when the channel released
        a cancelled response hold, less than SIFS after it, which is
        still before ``idle_start + IFS`` — so every case reduces to
        ``anchor = max(idle_start + IFS, now)``.
        """
        if self._bo_event is not None:
            self.sim.cancel(self._bo_event)
        sim = self.sim
        now = sim.now
        # (_current_ifs() and max(), inlined: once per contender per edge)
        anchor = idle_start + (
            self._eifs_us if self._use_eifs else self._difs_us
        )
        if anchor < now:
            anchor = now
        self._bo_anchor = anchor
        self._bo_event = sim.schedule_at(
            anchor + self._bo_slots * self._slot_us,
            self._countdown_expired,
            priority=_PRIO_TX_START, category=_CAT_MAC,
        )

    def _countdown_expired(self) -> None:
        self._bo_event = None
        self._backoff_active = False
        self._bo_slots = 0
        self.channel.carrier_unsubscribe(self)
        if self._current is None:
            # Post-transmission backoff finished with nothing to send;
            # ask the scheduler in case traffic arrived meanwhile.
            self._try_load()
            if self._current is None:
                return
        self._transmit_current()

    # ------------------------------------------------------------------
    # carrier-sense callbacks (from the channel)
    # ------------------------------------------------------------------
    def on_busy(self, busy_start: float) -> None:
        event = self._bo_event
        if event is None:
            return
        if abs(event[0] - busy_start) < _SLOT_EPS:
            # Our countdown expires exactly when this carrier began: we
            # are committed to transmitting in this slot (collision).
            return
        # Freeze: account for slots that elapsed before the carrier.
        elapsed_us = busy_start - self._bo_anchor
        if elapsed_us > 0:
            slots = self._bo_slots - int(
                elapsed_us / self._slot_us + _SLOT_EPS
            )
            self._bo_slots = slots if slots > 0 else 0
        self.sim.cancel(event)
        self._bo_event = None

    def on_idle(self, idle_start: float) -> None:
        if self._backoff_active and self._bo_event is None:
            self._arm_countdown(idle_start)

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------
    def _transmit_current(self) -> None:
        frame = self._current
        assert frame is not None
        # Refresh the rate each attempt (rate control may have stepped).
        frame.rate_mbps = self.rate_for(frame.dst)
        self._attempts += 1
        frame.attempt = self._attempts
        self.tx_attempts += 1
        if self._attempts == 1 and not self._burst_continuation:
            # A fresh contention win opens a burst window (1 for DCF).
            self._burst_remaining = self.config.burst_frames(frame.rate_mbps) - 1
        duration = frame_airtime_us(self.phy, frame.size_bytes, frame.rate_mbps)
        ifs = self.phy.sifs_us if self._burst_continuation else self._current_ifs()
        self._airtime_accum += ifs + duration
        self._transmitting = True
        self._current_tx = self.channel.transmit(frame, duration)
        self._awaiting_ack_for = frame
        # The ACK rate itself is chosen by the receiver; the timeout only
        # needs the (precomputed) worst-case tail at the lowest basic rate.
        self._ack_timeout_event = self.sim.schedule(
            duration + self._ack_timeout_base, self._ack_timeout,
            priority=_PRIO_HIGH, category=_CAT_MAC,
        )

    def _ack_timeout(self) -> None:
        self._ack_timeout_event = None
        self._transmitting = False
        frame = self._awaiting_ack_for
        self._awaiting_ack_for = None
        if frame is None:
            return
        if self.attempt_listener is not None:
            self.attempt_listener(frame.dst, False)
        if self._attempts >= self.config.max_attempts:
            # Retry-limit exhaustion is a first-class outcome: the frame
            # is dropped (released to its pool by _finish_exchange) and
            # the listeners see success=False.
            self.tx_dropped += 1
            self._finish_exchange(frame, success=False)
            return
        # Exponential backoff and retry.
        self._cw = min((self._cw + 1) * 2 - 1, self.phy.cw_max)
        self._start_backoff(draw=True)

    def _ack_received(self, ack: Frame) -> None:
        frame = self._awaiting_ack_for
        if frame is None or ack.acked_seq != frame.seq:
            return
        if self._ack_timeout_event is not None:
            self.sim.cancel(self._ack_timeout_event)
            self._ack_timeout_event = None
        self._transmitting = False
        self._awaiting_ack_for = None
        if self.attempt_listener is not None:
            self.attempt_listener(frame.dst, True)
        # Account the SIFS + ACK airtime in the exchange's occupancy.
        ack_dur = ack_airtime_us(self.phy, ack.rate_mbps)
        self._airtime_accum += self.phy.sifs_us + ack_dur
        self.tx_success += 1
        self._finish_exchange(frame, success=True)

    def _finish_exchange(self, frame: Frame, *, success: bool) -> None:
        packet = frame.packet
        report = ExchangeReport(
            packet=packet,
            dst=frame.dst,
            success=success,
            attempts=self._attempts,
            airtime_us=self._airtime_accum,
        )
        self._current = None
        attempts = self._attempts
        self._airtime_accum = 0.0
        self._attempts = 0
        self._cw = self.phy.cw_min
        continue_burst = (
            success
            and self._burst_remaining > 0
            and attempts == 1  # a retry already re-contended; end the burst
        )
        if not continue_burst:
            self._burst_remaining = 0
            self._burst_continuation = False
            # Post-transmission backoff always runs (802.11 9.2.5.2).
            self._start_backoff(draw=True)
        self._completing = True
        try:
            for listener in self.completion_listeners:
                listener(report)
        finally:
            self._completing = False
        if packet is not None:
            # Last touchpoint of the packet's life: recycle pooled ones.
            # (getattr: schedulers are duck-typed and tests feed them
            # minimal packet stand-ins without a freelist.)
            release = getattr(packet, "release", None)
            if release is not None:
                release()
        if continue_burst and self._current is None:
            if self._load_burst_continuation():
                return
            # Nothing left to send: close the burst normally.
            self._burst_remaining = 0
            self._burst_continuation = False
            self._start_backoff(draw=True)
        # Load the next frame; it will ride the post-backoff countdown.
        self._try_load()

    def _load_burst_continuation(self) -> bool:
        """Dequeue the next burst frame and transmit it after SIFS."""
        if self.scheduler is None:
            return False
        packet = self.scheduler.dequeue()
        if packet is None:
            return False
        dst = getattr(packet, "mac_dst")
        frame = Frame(
            FrameType.DATA,
            self.address,
            dst,
            packet.size_bytes,
            self.rate_for(dst),
            packet=packet,
        )
        self._current = frame
        self._attempts = 0
        self._airtime_accum = 0.0
        self._burst_remaining -= 1
        self._burst_continuation = True
        self.sim.schedule(
            self.phy.sifs_us,
            self._transmit_burst_frame,
            priority=EventPriority.TX_START,
            category=EventCategory.MAC,
        )
        return True

    def _transmit_burst_frame(self) -> None:
        if self._current is None:
            return
        self._transmit_current()
        self._burst_continuation = False

    # ------------------------------------------------------------------
    # reception
    # ------------------------------------------------------------------
    def on_frame_end(self, frame: Frame, corrupted: bool) -> None:
        if corrupted:
            if not self._use_eifs:
                self._use_eifs = True
                self.channel.eifs_mark(self)
            return
        if self._use_eifs:
            self._use_eifs = False
            self.channel.eifs_unmark(self)
        if frame.dst != self.address:
            return
        if frame.is_ack:
            if frame.defer_hint is not None and self.defer_hint_handler:
                self.defer_hint_handler(frame.defer_hint)
            self._ack_received(frame)
            return
        # DATA frame addressed to us.
        self._schedule_ack(frame)
        last = self._rx_seen.get(frame.src)
        if last == frame.seq:
            self.rx_duplicates += 1
            return
        self._rx_seen[frame.src] = frame.seq
        self.rx_data_ok += 1
        if frame.defer_hint is not None and self.defer_hint_handler:
            self.defer_hint_handler(frame.defer_hint)
        if self.rx_handler is not None:
            self.rx_handler(frame)

    # Allow the node layer (TBR) to stamp defer hints onto outgoing ACKs.
    ack_decorator: Optional[Callable[[Frame, Frame], None]] = None

    def _schedule_ack(self, data_frame: Frame) -> None:
        ack_rate = ack_rate_for(self.phy, data_frame.rate_mbps)
        ack = Frame(
            FrameType.ACK, self.address, data_frame.src, ACK_BYTES, ack_rate
        )
        ack.acked_seq = data_frame.seq
        if self.ack_decorator is not None:
            self.ack_decorator(ack, data_frame)
        sifs = self.phy.sifs_us
        self._ack_tx_event = self.sim.schedule(
            sifs, self._send_ack, ack,
            priority=_PRIO_TX_START, category=_CAT_MAC,
        )
        # Committed: nothing but shutdown() stops _send_ack, so the
        # channel may hold carrier edges across the SIFS gap.
        self.channel.reserve_response(self.sim.now + sifs)

    def _send_ack(self, ack: Frame) -> None:
        self._ack_tx_event = None
        duration = ack_airtime_us(self.phy, ack.rate_mbps)
        self.channel.transmit(ack, duration)
