"""TBR — the Time-based Regulator (paper Section 4, Figure 6).

TBR is an AP downlink scheduler (it plugs into the same slot as the
FIFO/RR/DRR disciplines) that additionally accounts *uplink* channel
usage, so each competing station's total occupancy time — both
directions — converges to its fair share:

* **ASSOCIATEEVENT** -> :meth:`TbrScheduler.associate`
* **FILLEVENT**      -> periodic timer :meth:`_fill_event`
* **APPTXEVENT**     -> :meth:`TbrScheduler.enqueue`
* **MACTXEVENT**     -> :meth:`TbrScheduler.dequeue` (the MAC pulls a
  packet whenever it is ready to transmit)
* **COMPLETEEVENT**  -> :meth:`TbrScheduler.on_complete` (downlink, true
  airtime known to the AP) and :meth:`TbrScheduler.on_uplink_complete`
  (uplink, estimated airtime — without retransmission information by
  default, exactly like the paper's prototype)
* **ADJUSTRATEEVENT**-> periodic :class:`repro.core.RateAdjuster`

Uplink TCP needs no client cooperation: its ACKs traverse the
per-station downlink queue, so withholding them throttles the sender
(ack clocking).  Uplink UDP can be regulated by the optional client
notification bit piggybacked on downlink frames/ACKs (Section 4.1),
implemented by :attr:`TbrConfig.notify_clients` together with the
station-side agent in :class:`repro.node.Station`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.core.rate_adjust import RateAdjustConfig, RateAdjuster
from repro.core.token_bucket import TokenBucket
from repro.queueing.base import ApScheduler, StationQueue
from repro.sim import PeriodicTimer, Simulator


@dataclass
class TbrConfig:
    """TBR tunables (paper defaults where stated, sane ones elsewhere)."""

    #: FILLEVENT period.
    fill_interval_us: float = 10_000.0
    #: ADJUSTRATEEVENT period (0 disables rate adjustment).
    adjust_interval_us: float = 1_000_000.0
    #: bucket_i: deepest token balance a station can accumulate; bounds
    #: its burst length (Section 4.5 discusses the short-term-fairness
    #: trade-off this knob controls).
    bucket_depth_us: float = 100_000.0
    #: T_init: initial token grant on association.
    initial_tokens_us: float = 20_000.0
    #: Strict mode (the default, and the paper's Figure 6 MACTXEVENT)
    #: releases packets only for positive-token stations; long-term
    #: utilization is kept high by ADJUSTRATEEVENT re-assigning token
    #: rates.  Setting ``work_conserving=True`` adds an immediate
    #: borrow-from-the-least-indebted fallback instead — the ablation
    #: benchmark shows this defeats uplink regulation (withheld TCP acks
    #: get released the moment no eligible queue is backlogged), which
    #: is why the paper's design charges utilization management to the
    #: rate adjuster rather than the dequeue path.
    work_conserving: bool = False
    #: Piggyback defer hints for token-starved stations on downlink
    #: frames and ACKs (client cooperation, needed only for uplink UDP).
    notify_clients: bool = False
    #: Defer duration carried by a notification hint.
    defer_hint_us: float = 5_000.0
    #: Optional per-station weights (QoS extension, Section 4.5); equal
    #: shares when empty.
    weights: Dict[str, float] = field(default_factory=dict)
    #: ADJUSTRATEEVENT policy.
    adjust: RateAdjustConfig = field(default_factory=RateAdjustConfig)

    def __post_init__(self) -> None:
        if self.fill_interval_us <= 0:
            raise ValueError("fill interval must be positive")
        if self.bucket_depth_us <= 0:
            raise ValueError("bucket depth must be positive")
        for station, weight in self.weights.items():
            if weight <= 0:
                raise ValueError(f"weight for {station!r} must be positive")


class TbrScheduler(ApScheduler):
    """The Time-based Regulator as an AP scheduler."""

    TIME_STATE = dict(
        clocks=("_window_start_us",),
        counters=("regular_releases", "borrowed_releases"),
        parts=("_fill_timer", "_adjust_timer", "buckets"),
    )

    def __init__(
        self,
        sim: Simulator,
        config: Optional[TbrConfig] = None,
        *,
        total_capacity: int = 100,
        per_station_capacity: Optional[int] = None,
    ) -> None:
        super().__init__(total_capacity, per_station_capacity)
        self.sim = sim
        self.config = config if config is not None else TbrConfig()
        self.buckets: Dict[str, TokenBucket] = {}
        self.adjuster = RateAdjuster(self.config.adjust)

        self._fill_timer = PeriodicTimer(
            sim, self.config.fill_interval_us, self._fill_event
        )
        self._fill_timer.start()
        self._adjust_timer: Optional[PeriodicTimer] = None
        if self.config.adjust_interval_us > 0:
            self._adjust_timer = PeriodicTimer(
                sim, self.config.adjust_interval_us, self._adjust_event
            )
            self._adjust_timer.start()

        # Diagnostics.
        self.borrowed_releases = 0
        self.regular_releases = 0
        # Per-adjust-window uplink payload bytes (activity signal).
        self._uplink_bytes_window: Dict[str, int] = {}
        self._window_start_us = sim.now

    # ------------------------------------------------------------------
    # ASSOCIATEEVENT
    # ------------------------------------------------------------------
    def associate(self, station: str) -> None:
        if station in self.buckets:
            # Re-associating an already-present station must not grant a
            # second T_init (ASSOCIATEEVENT is idempotent); still clear
            # a stale departed flag so arrivals are admitted again.
            super().associate(station)
            return
        super().associate(station)
        self.buckets[station] = TokenBucket(
            station,
            rate=0.0,  # set by _reassign_rates below
            depth_us=self.config.bucket_depth_us,
            initial_us=self.config.initial_tokens_us,
            now_us=self.sim.now,
        )
        self._reassign_rates()

    def disassociate(self, station: str) -> int:
        """DISASSOCIATEEVENT: retire the station's bucket and queue.

        The station's queued downlink packets are flushed back to the
        :class:`PacketPool`, its :class:`TokenBucket` (and uplink
        activity window) is discarded, and its token rate is returned
        to the remaining stations by rescaling their rates to sum to
        1.0 — preserving whatever ratios ADJUSTRATEEVENT has learned
        instead of parking the freed share at ``min_rate`` forever.
        """
        flushed = super().disassociate(station)
        bucket = self.buckets.pop(station, None)
        self._uplink_bytes_window.pop(station, None)
        if bucket is not None and self.buckets:
            self.adjuster.normalize(list(self.buckets.values()), total=1.0)
        return flushed

    def _weight(self, station: str) -> float:
        return self.config.weights.get(station, 1.0)

    def _reassign_rates(self) -> None:
        """(Re)split the channel by weight across associated stations."""
        total_weight = sum(self._weight(s) for s in self.buckets)
        for station, bucket in self.buckets.items():
            bucket.rate = self._weight(station) / total_weight
            bucket.reset_window(self.sim.now)

    # ------------------------------------------------------------------
    # FILLEVENT
    # ------------------------------------------------------------------
    def _fill_event(self, elapsed_us: float) -> None:
        # Inlined TokenBucket.fill/eligible: this loop runs for every
        # associated station once per fill interval (100 Hz by default),
        # so at large N the attribute/property traffic dominates it.
        woke = False
        for bucket in self.buckets.values():
            grant = elapsed_us * bucket.rate
            bucket.filled_us += grant
            tokens = bucket.tokens_us
            was_eligible = tokens > 0.0
            tokens += grant
            depth = bucket.depth_us
            if tokens > depth:
                tokens = depth
            bucket.tokens_us = tokens
            if not was_eligible and tokens > 0.0:
                woke = True
        if woke and self.mac is not None:
            self.mac.notify_pending()

    # ------------------------------------------------------------------
    # MACTXEVENT
    # ------------------------------------------------------------------
    def dequeue(self) -> Any:
        queue = self._select_eligible()
        if queue is not None:
            self.regular_releases += 1
            return queue.pop()
        if self.config.work_conserving:
            queue = self._select_any_backlogged()
            if queue is not None:
                self.borrowed_releases += 1
                return queue.pop()
        return None

    def _select_eligible(self) -> Optional[StationQueue]:
        """Round-robin over stations with backlog *and* positive tokens."""
        n = len(self._order)
        for offset in range(n):
            idx = (self._rr_index + offset) % n
            station = self._order[idx]
            queue = self.queues[station]
            if queue and self.buckets[station].eligible:
                self._rr_index = (idx + 1) % n
                return queue
        return None

    def _select_any_backlogged(self) -> Optional[StationQueue]:
        """Work-conservation fallback: among backlogged stations pick the
        least-indebted one (largest token balance)."""
        best: Optional[StationQueue] = None
        best_tokens = float("-inf")
        for station in self._order:
            queue = self.queues[station]
            if queue and self.buckets[station].tokens_us > best_tokens:
                best = queue
                best_tokens = self.buckets[station].tokens_us
        return best

    # ------------------------------------------------------------------
    # COMPLETEEVENT
    # ------------------------------------------------------------------
    def on_complete(
        self, packet: Any, airtime_us: float, success: bool, attempts: int,
        rate_mbps: float,
    ) -> None:
        bucket = self.buckets.get(packet.station)
        if bucket is not None:
            bucket.charge(airtime_us)
        super().on_complete(packet, airtime_us, success, attempts, rate_mbps)

    def on_uplink_complete(
        self, station: str, airtime_us: float, *, attempts: int = 1,
        success: bool = True, payload_bytes: int = 0,
    ) -> None:
        bucket = self.buckets.get(station)
        if bucket is None:
            if station in self._departed:
                # A frame that was already in the air when its station
                # disassociated: nobody's tokens to charge.
                return
            # Uplink from an unassociated station: associate on first use.
            self.associate(station)
            bucket = self.buckets[station]
        bucket.charge(airtime_us)
        self._uplink_bytes_window[station] = (
            self._uplink_bytes_window.get(station, 0) + payload_bytes
        )

    # ------------------------------------------------------------------
    # ADJUSTRATEEVENT
    # ------------------------------------------------------------------
    def _adjust_event(self, _elapsed_us: float) -> None:
        buckets = list(self.buckets.values())
        if not buckets:
            return
        # Relax toward base shares first (see RateAdjustConfig.restore_
        # fraction): transfers below are re-earned each round.
        restore = self.config.adjust.restore_fraction
        if restore > 0.0:
            total_weight = sum(self._weight(s) for s in self.buckets)
            for bucket in buckets:
                base = self._weight(bucket.station) / total_weight
                bucket.rate += restore * (base - bucket.rate)
        self.adjuster.adjust(
            buckets, self.sim.now, is_active=self._station_active
        )
        self.adjuster.normalize(buckets, total=1.0)
        self._uplink_bytes_window.clear()
        self._window_start_us = self.sim.now

    #: a station with less uplink traffic than this over the window is
    #: considered to have no uplink demand (TCP-ack trickles qualify).
    UPLINK_IDLE_MBPS = 0.05

    def _station_active(self, bucket: TokenBucket) -> bool:
        """Did this station show real demand over the adjust window?

        A station is *inactive* (safe to take rate from) only when it is
        visibly idle: tokens pegged near the bucket cap, an empty
        downlink queue, and at most an ack-trickle of uplink traffic.
        Everything else — including a station whose charged spend
        undershoots its assignment because it is crowded by slower
        peers — counts as active (see ``repro.core.rate_adjust``).
        """
        station = bucket.station
        if self.backlog(station) > 0:
            return True
        window = max(1.0, self.sim.now - self._window_start_us)
        uplink_mbps = self._uplink_bytes_window.get(station, 0) * 8.0 / window
        if uplink_mbps >= self.UPLINK_IDLE_MBPS:
            return True
        return bucket.tokens_us < 0.95 * bucket.depth_us

    # ------------------------------------------------------------------
    # introspection / client notification support
    # ------------------------------------------------------------------
    def tokens_us(self, station: str) -> float:
        bucket = self.buckets.get(station)
        return bucket.tokens_us if bucket is not None else 0.0

    def token_rate(self, station: str) -> float:
        bucket = self.buckets.get(station)
        return bucket.rate if bucket is not None else 0.0

    def station_starved(self, station: str) -> bool:
        bucket = self.buckets.get(station)
        return bucket is not None and not bucket.eligible

    def defer_hint_for(self, station: str) -> Optional[float]:
        """Hint to piggyback toward ``station`` (None when not needed)."""
        if not self.config.notify_clients:
            return None
        if self.station_starved(station):
            return self.config.defer_hint_us
        return None

    def stop(self) -> None:
        """Cancel timers (lets a finished simulation drain its queue)."""
        self._fill_timer.stop()
        if self._adjust_timer is not None:
            self._adjust_timer.stop()
