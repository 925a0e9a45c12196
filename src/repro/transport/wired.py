"""Wired links between the AP and backbone hosts.

A :class:`WiredLink` is a unidirectional pipe with a fixed propagation
delay and an optional serialization rate.  The only links built are
the AP's two wires, at 100 Mbps, faster than any WLAN rate (Table 4's
2.1 Mbps constraint is a paced application, not a wire).  Delivery
order is FIFO.

Demand-driven mode
------------------

Constant-bit-rate sources used to cost *two* kernel events per offered
packet: the source timer that created the packet, and the transient
event that delivered it out of the pipe.  A demand source (e.g.
``repro.transport.udp.UdpDownlinkSource``) is instead a :class:`Pacing`
record — its *future arrival schedule* — that it hands to the link with
:meth:`WiredLink.attach_source`, and the link *folds* each arrival into
the serialization state when a delivery (or a competing plain ``send``)
proves it is next in fire-time order — so each *observable* arrival
costs exactly one kernel event: its delivery.

The link owns the schedule's arithmetic: a fold advances the record in
place (fire time, sequence number, ``sent``, the jitter draw), and an
unwind rolls it back, so the source is called only for what needs its
consumer — :meth:`DemandSource.deliver` and :meth:`DemandSource.refuse`.

Exactness: the serialization fold ``busy = max(busy, t_fire) + bits/rate``
is order-sensitive, so folds must happen in fire-time order across all
senders sharing the pipe.  The link's arrival heap holds each source's
earliest unfolded fire time, and a FIFO of folded-but-undelivered
arrivals in which at most the *tail* is speculative (folded ahead of
simulation time).  An interleaving plain :meth:`send`, a source
stopping, or a new source attaching with an earlier first fire
*unwinds* that speculative tail — restoring ``_busy_until`` and the
source's schedule — then refolds in the correct order.  Delivery
timestamps are computed with the same float expression the two-event
path used, and the jitter with the one ``random.uniform`` uses, so they
match bit for bit.

Draining
--------

In a saturated cell most arrivals exist only to be tail-dropped, and a
drop nobody can observe needs no event at all.  At the end of a pump
delivery — a kernel event in which the pump is the last actor — the
link keeps folding, and an arrival whose delivery time ``t`` satisfies
``now <= t < sim.next_time()`` *strictly* and whose consumer refuses it
*now* (:meth:`DemandSource.refuse`) is accounted on the spot; the first
arrival that is admitted, ties with, or lands after the next thing that
can run gets its kernel event as before.  :attr:`WiredLink.drained`
counts the arrivals settled this way, so ``pump delivery events +
drained == delivered``.  Such an arrival costs one Python call, the
refusal itself: the fold, the schedule's advance and the jitter draw
are inline.

Exactness: room in a queue opens only inside some *other* kernel event
(dequeue, flush, disassociate, timeline) or in caller code between
``run`` calls; none can run before ``next_time()``; enqueues in between
only keep a full queue full; and a drop schedules nothing, so
``next_time()`` is loop-invariant and the drop commutes with everything
up to it.  A drained arrival is never speculative either: whatever
could unwind it (a plain ``send``, ``stop()``, a new source) acts at or
after ``next_time()``, later than its fire time.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush, heapreplace
from typing import Any, Callable, Deque, List, Optional, Protocol, Tuple

from repro.sim import EventCategory, Simulator

#: ``_fold_next`` limit under which no delivery time can fall.
_NO_DRAIN = -float("inf")
#: The category of every delivery event, as a plain ``int`` (see
#: ``repro.mac.dcf``).
_CAT_TRAFFIC = int(EventCategory.TRAFFIC)


class Pacing:
    """A demand source's arrival schedule, which the link advances in place.

    The next arrival fires at ``fire_us``; each later one
    ``interval_us`` after its predecessor, plus a jitter drawn as
    ``lo + (hi - lo) * random()`` — ``random.uniform(lo, hi)`` bit for
    bit — when ``random`` is set.  Arrivals firing at or after
    ``stop_us`` (``None``: never) do not exist.  ``rewound`` holds the
    fire times unwound folds gave back, reused before any fresh draw so
    the RNG stream is consumed exactly once per arrival.  ``seq``
    numbers the arrivals and ``sent`` counts those committed to the pipe
    (one ahead of the clock while a speculative fold is pending).

    Only :class:`WiredLink` advances and rewinds the record; a demand
    source is a subclass that adds the :class:`DemandSource` calls.
    """

    __slots__ = (
        "fire_us", "stop_us", "interval_us", "packet_bytes",
        "lo", "hi", "random", "rewound", "seq", "sent",
    )

    #: The schedule shifts with the owning wire's ``_arrivals`` heap
    #: (``repro.sim.steady``).  ``sent`` is the offered load, which
    #: delivered counts must not exceed, so it scales; the sequence
    #: numbers do not.
    TIME_STATE = dict(
        clocks=("fire_us", "stop_us", "rewound"),
        counters=("sent",),
        phase={"seq": "sequence number: the sink's last_seq follows it"},
    )

    def __init__(
        self,
        fire_us: float,
        interval_us: float,
        packet_bytes: int,
        *,
        jitter_us: float = 0.0,
        random: Optional[Callable[[], float]] = None,
        stop_us: Optional[float] = None,
    ) -> None:
        self.fire_us = fire_us
        self.stop_us = stop_us
        self.interval_us = interval_us
        #: fixed on-the-wire packet size.
        self.packet_bytes = packet_bytes
        self.lo = -jitter_us
        self.hi = jitter_us
        #: ``[0, 1)`` draws for the jitter; ``None``: no jitter, no draw.
        self.random = random
        self.rewound: List[float] = []
        self.seq = 0
        self.sent = 0


class DemandSource(Protocol):
    """What the link calls on a demand source (a :class:`Pacing`)."""

    def deliver(self, seq: int, fire_us: float) -> None:
        """The arrival transited the pipe; hand it to the consumer."""

    def refuse(self) -> bool:
        """Would the consumer turn an arrival away right now?

        ``True``: it would, and every counter :meth:`deliver` would have
        moved for that loss has been moved (refuse-and-count).
        ``False``: it would be admitted, and nothing was touched.
        """


class _Folded:
    """One folded-but-undelivered demand arrival."""

    __slots__ = ("source", "index", "fire_us", "seq", "busy_before", "event")

    TIME_STATE = dict(clocks=("fire_us", "busy_before"))

    def __init__(
        self,
        source: Pacing,
        index: int,
        fire_us: float,
        seq: int,
        busy_before: float,
        event,
    ) -> None:
        self.source = source
        self.index = index
        self.fire_us = fire_us
        self.seq = seq
        self.busy_before = busy_before
        self.event = event


class WiredLink:
    """One-way wired pipe: serialize (optional) then propagate."""

    #: The serialization clock, the ``(fire_us, index)`` arrival heap,
    #: the folded records and every attached source move by the delta the
    #: kernel heap moved (``repro.sim.steady``), so the fold/unwind
    #: invariants (fire-time order, ``busy_before`` restoration, each
    #: source's ``fire_us`` matching its ``_arrivals`` entry) are
    #: preserved verbatim.
    TIME_STATE = dict(
        clocks=("_busy_until", "_arrivals"),
        counters=("delivered", "drained"),
        parts=("_folded", "_sources"),
    )

    def __init__(
        self,
        sim: Simulator,
        delay_us: float = 1000.0,
        rate_mbps: float = 0.0,
    ) -> None:
        if delay_us < 0:
            raise ValueError("delay must be non-negative")
        if rate_mbps < 0:
            raise ValueError("rate must be non-negative (0 = infinite)")
        self.sim = sim
        self.delay_us = delay_us
        self.rate_mbps = rate_mbps
        self._busy_until = 0.0
        self.delivered = 0
        #: demand arrivals accounted without a kernel event (counted in
        #: ``delivered`` too; see "Draining" in the module docstring).
        self.drained = 0
        # Demand-driven state: registered sources, a heap of
        # (fire_us, registration_index) holding at most one live entry
        # per source, and the FIFO of folded-but-undelivered arrivals
        # (at most the tail folded ahead of simulation time).
        self._sources: List[Pacing] = []
        self._arrivals: List[Tuple[float, int]] = []
        self._folded: Deque[_Folded] = deque()

    # ------------------------------------------------------------------
    # plain (event-per-hop) path
    # ------------------------------------------------------------------
    def send(self, packet: Any, deliver: Callable[[Any], None]) -> None:
        """Queue ``packet``; ``deliver(packet)`` fires after the pipe."""
        sim = self.sim
        now = sim.now
        folded = self._folded
        if folded:
            # This send serializes at `now`; every demand arrival firing
            # up to now must fold first, and a speculative fold firing
            # *after* now must fold later — unwind it, fold the overdue
            # arrivals, serialize us, then refold below.
            if folded[-1].fire_us > now:
                self._unwind_tail()
            self._fold_due(now)
        rate = self.rate_mbps
        if rate > 0:
            start = self._busy_until
            if now > start:
                start = now
            ready = start + packet.size_bytes * 8.0 / rate
            self._busy_until = ready
        else:
            ready = now
        # Fire-and-forget: nobody keeps (or cancels) delivery events.
        sim.schedule(
            ready - now + self.delay_us, self._deliver, packet, deliver,
            category=_CAT_TRAFFIC,
        )
        if not self._folded and self._arrivals:
            self._fold_next()

    def _deliver(self, packet: Any, deliver: Callable[[Any], None]) -> None:
        self.delivered += 1
        deliver(packet)

    def reset(self) -> None:
        """Forget serialization backlog and counters (pipe reuse).

        A link's ``_busy_until`` is monotone: reusing a link object for
        a new logical epoch (a fresh measurement phase, a rebuilt
        topology) without resetting it delays the first packets of the
        new epoch behind ghost traffic from the previous one.  Pending
        demand-driven folds are rolled back too (newest first, so the
        serialization state rewinds consistently), then refolded against
        the cleared pipe.
        """
        while self._folded:
            self._unwind_tail()
        # "Fresh" means idle-from-now, not idle-since-t0: an attached
        # demand source may have an overdue fire time (backlog built in
        # the old epoch), and refolding it against a pipe idle in the
        # past would place its delivery before the clock.  For plain
        # sends the two are indistinguishable (send starts at
        # max(busy, now) anyway).
        self._busy_until = self.sim.now
        self.delivered = 0
        self.drained = 0
        if self._arrivals:
            self._fold_next()

    # ------------------------------------------------------------------
    # demand-driven (event-per-observable-arrival) path
    # ------------------------------------------------------------------
    def attach_source(self, source: DemandSource) -> None:
        """Register a demand source (a :class:`Pacing` record that is a
        :class:`DemandSource`); delivery starts immediately."""
        index = len(self._sources)
        self._sources.append(source)
        fire = source.fire_us
        stop = source.stop_us
        if stop is not None and fire >= stop:
            return
        folded = self._folded
        if folded and folded[-1].fire_us > fire:
            # The newcomer fires before the speculative fold: redo it in
            # the right order (non-tail folds all fire at or before now,
            # hence before the newcomer, and stay put).
            self._unwind_tail()
        heappush(self._arrivals, (fire, index))
        if not self._folded:
            self._fold_next()

    def source_stopped(self, source: DemandSource) -> None:
        """A source's future arrivals were cancelled (``stop()``).

        Its stale heap entry is discarded lazily (its fire time is now at
        or past ``stop_us``); only a speculative fold that the two-event path
        would never have sent — fire time at or after the stop — needs
        active rollback.  Already-fired folds still deliver, exactly
        like packets already in the pipe.
        """
        folded = self._folded
        if (
            folded
            and folded[-1].source is source
            and folded[-1].fire_us >= self.sim.now
        ):
            self._unwind_tail()
            if not self._folded:
                self._fold_next()

    def _fold_due(self, now: float) -> None:
        """Fold every arrival with fire time at or before ``now``.

        Under serialization backlog the fold frontier can lag the clock
        (folds are paced by deliveries); a plain send must not overtake
        those overdue arrivals.
        """
        arrivals = self._arrivals
        sources = self._sources
        while arrivals and arrivals[0][0] <= now:
            fire, index = arrivals[0]
            source = sources[index]
            stop = source.stop_us
            if source.fire_us != fire or (stop is not None and fire >= stop):
                heappop(arrivals)  # orphaned by stop()/rewind
                continue
            self._fold_next()

    def _fold_next(self, limit: float = _NO_DRAIN) -> None:
        """Fold the earliest live arrival; schedule its delivery event.

        Arrivals that would leave the pipe strictly before ``limit`` and
        that their consumer refuses right now are accounted inline and
        folding continues (see "Draining" in the module docstring); only
        :meth:`_pump_deliver` passes a limit.  Each fold advances the
        source's :class:`Pacing` record in place.
        """
        arrivals = self._arrivals
        sources = self._sources
        sim = self.sim
        now = sim.now
        rate = self.rate_mbps
        delay = self.delay_us
        # The serialization clock and the drain count live in locals
        # until the loop ends: a refusal touches only its scheduler.
        busy = self._busy_until
        drained = 0
        record = None
        pushed = None  # the entry this loop pushed last: live by construction
        while arrivals:
            entry = arrivals[0]
            fire, index = entry
            source = sources[index]
            stop = source.stop_us
            if entry is not pushed and (
                source.fire_us != fire or (stop is not None and fire >= stop)
            ):
                heappop(arrivals)  # orphaned by stop()/rewind
                continue
            busy_before = busy
            if rate > 0:
                if fire > busy:
                    busy = fire
                busy = busy + source.packet_bytes * 8.0 / rate
                ready = busy
            else:
                ready = fire
            seq = source.seq + 1
            source.seq = seq
            source.sent += 1
            rewound = source.rewound
            if rewound:
                next_fire = rewound.pop()
            elif source.random is None:
                next_fire = fire + source.interval_us
            else:
                lo = source.lo
                jitter = lo + (source.hi - lo) * source.random()
                next_fire = fire + (source.interval_us + jitter)
            source.fire_us = next_fire
            if stop is not None and next_fire >= stop:
                heappop(arrivals)
            else:
                pushed = (next_fire, index)
                heapreplace(arrivals, pushed)
            # Same float expression the two-event path evaluates at the
            # source-timer event (where now == fire), so the delivery
            # timestamp is bit-identical: now' + (ready - now' + delay).
            deliver_at = fire + (ready - fire + delay)
            if deliver_at < now:
                # Unreachable in normal operation (folds are paced so
                # deliveries stay ahead of the clock); reset() can
                # rebase an overdue arrival onto the fresh pipe, whose
                # delivery then lands immediately rather than in the
                # past.
                deliver_at = now
            if deliver_at < limit and source.refuse():
                drained += 1
                continue
            record = _Folded(source, index, fire, seq, busy_before, None)
            break
        self._busy_until = busy
        if drained:
            self.delivered += drained
            self.drained += drained
        if record is not None:
            record.event = sim.schedule_at(
                deliver_at,
                self._pump_deliver,
                category=_CAT_TRAFFIC,
            )
            self._folded.append(record)

    def _pump_deliver(self) -> None:
        record = self._folded.popleft()
        self.delivered += 1
        record.source.deliver(record.seq, record.fire_us)
        folded = self._folded
        if not folded:
            # The pump is the last actor of this kernel event: drain.
            self._fold_next(self.sim.next_time())
        elif folded[-1].fire_us <= self.sim.now:
            # Keep at most one speculative fold: folding here while the
            # tail still fires in the future would stack a second
            # arrival ahead of time, which a plain send could no longer
            # unwind.
            self._fold_next()

    def _unwind_tail(self) -> None:
        """Roll back the speculative fold (see module docstring)."""
        record = self._folded.pop()
        self.sim.cancel(record.event)
        self._busy_until = record.busy_before
        source = record.source
        fire = record.fire_us
        source.rewound.append(source.fire_us)
        source.fire_us = fire
        source.seq -= 1
        source.sent -= 1
        if source.stop_us is None or fire < source.stop_us:
            heappush(self._arrivals, (fire, record.index))
