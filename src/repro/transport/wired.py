"""Wired links between the AP and backbone hosts.

A :class:`WiredLink` is a unidirectional pipe with a fixed propagation
delay and an optional serialization rate (for modelling a bottleneck
slower than the WLAN, e.g. Table 4's 2.1 Mbps constrained path).
Delivery order is FIFO.

Demand-driven mode
------------------

Constant-bit-rate sources used to cost *two* kernel events per offered
packet: the source timer that created the packet, and the transient
event that delivered it out of the pipe.  A :class:`DemandSource`
(e.g. ``repro.transport.udp.UdpDownlinkSource``) instead registers its
*future arrival schedule* with the link, and the link *folds* each
arrival into the serialization state when a delivery (or a competing
plain ``send``) proves it is next in fire-time order — so each
*observable* arrival costs exactly one kernel event: its delivery.

Exactness: the serialization fold ``busy = max(busy, t_fire) + bits/rate``
is order-sensitive, so folds must happen in fire-time order across all
senders sharing the pipe.  Each demand source exposes exactly its
earliest unfolded fire time; the link keeps a FIFO of folded-but-
undelivered arrivals in which at most the *tail* is speculative (folded
ahead of simulation time).  An interleaving plain :meth:`send`, a
source stopping, or a new source attaching with an earlier first fire
*unwinds* that speculative tail — restoring ``_busy_until`` and the
source's counters — then refolds in the correct order.  Delivery
timestamps are computed with the same float expression the two-event
path used, so they match bit for bit.

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
drained == delivered``.

Exactness: room in a queue opens only inside some *other* kernel event
(dequeue, flush, disassociate, timeline) or in caller code between
``run`` calls; none can run before ``next_time()``; enqueues in between
only keep a full queue full; and a drop schedules nothing, so
``next_time()`` is loop-invariant and the drop commutes with everything
up to it.  A drained arrival is never speculative either: whatever
could unwind it (a plain ``send``, ``stop()``, a new source) acts at or
after ``next_time()``, later than its fire time.  The one visible
difference: ``stop()`` and ``max_events`` end a run by count, not by
time, so after them (never after ``run(until=...)``) the counters may
already include drops up to the next pending event.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush, heapreplace
from typing import Any, Callable, Deque, List, Optional, Protocol, Tuple

from repro.sim import EventCategory, Simulator

_INF = float("inf")
#: ``_fold_next`` limit under which no delivery time can fall.
_NO_DRAIN = -_INF


class DemandSource(Protocol):
    """What the link's demand path needs from a packet source."""

    #: fixed on-the-wire packet size.
    packet_bytes: int

    def peek_fire_us(self) -> Optional[float]:
        """Earliest unfolded fire time, or ``None`` when exhausted."""

    def advance(self) -> int:
        """Consume the current arrival; returns its sequence number.

        Advancing moves the source to its next fire time (drawing any
        jitter), increments its sent counters, and must be undoable by
        exactly one :meth:`rewind`.
        """

    def rewind(self, seq: int, fire_us: float) -> None:
        """Undo the latest :meth:`advance` (speculative fold unwound)."""

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
        source: DemandSource,
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
    #: invariants (fire-time order, ``busy_before`` restoration,
    #: ``peek_fire_us`` matching ``_arrivals``) are preserved verbatim.
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
        self._sources: List[DemandSource] = []
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
        # Fire-and-forget: nobody keeps (or cancels) delivery events, so
        # let the kernel recycle the event objects.
        sim.schedule_transient(
            ready - now + self.delay_us, self._deliver, packet, deliver,
            category=EventCategory.TRAFFIC,
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
        """Register a demand-driven source; delivery starts immediately."""
        index = len(self._sources)
        self._sources.append(source)
        fire = source.peek_fire_us()
        if fire is None:
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

        Its stale heap entry is discarded lazily (``peek_fire_us`` now
        disowns it); only a speculative fold that the two-event path
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
            if sources[index].peek_fire_us() != fire:
                heappop(arrivals)  # orphaned by stop()/rewind
                continue
            self._fold_next()

    def _fold_next(self, limit: float = _NO_DRAIN) -> None:
        """Fold the earliest live arrival; schedule its delivery event.

        Arrivals that would leave the pipe strictly before ``limit`` and
        that their consumer refuses right now are accounted inline and
        folding continues (see "Draining" in the module docstring); only
        :meth:`_pump_deliver` passes a limit.
        """
        arrivals = self._arrivals
        sources = self._sources
        sim = self.sim
        now = sim.now
        rate = self.rate_mbps
        delay = self.delay_us
        pushed = None  # the entry this loop pushed last: live by construction
        while arrivals:
            entry = arrivals[0]
            fire, index = entry
            source = sources[index]
            if entry is not pushed and source.peek_fire_us() != fire:
                heappop(arrivals)  # orphaned by stop()/rewind
                continue
            busy_before = self._busy_until
            if rate > 0:
                start = busy_before
                if fire > start:
                    start = fire
                ready = start + source.packet_bytes * 8.0 / rate
                self._busy_until = ready
            else:
                ready = fire
            seq = source.advance()
            next_fire = source.peek_fire_us()
            if next_fire is None:
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
                self.delivered += 1
                self.drained += 1
                continue
            record = _Folded(source, index, fire, seq, busy_before, None)
            record.event = sim.schedule_transient_at(
                deliver_at,
                self._pump_deliver,
                category=EventCategory.TRAFFIC,
            )
            self._folded.append(record)
            return

    def _pump_deliver(self) -> None:
        record = self._folded.popleft()
        self.delivered += 1
        record.source.deliver(record.seq, record.fire_us)
        folded = self._folded
        if not folded:
            # The pump is the last actor of this kernel event: drain.
            # An unbounded limit (nothing pending, no run horizon) would
            # never hand control back to a ``max_events`` budget, so it
            # gets the plain one-event-per-arrival path.
            limit = self.sim.next_time()
            self._fold_next(limit if limit < _INF else _NO_DRAIN)
        elif folded[-1].fire_us <= self.sim.now:
            # Keep at most one speculative fold: folding here while the
            # tail still fires in the future would stack a second
            # arrival ahead of time, which a plain send could no longer
            # unwind.
            self._fold_next()

    def _unwind_tail(self) -> None:
        """Roll back the speculative fold (see module docstring)."""
        record = self._folded.pop()
        record.event.cancel()
        self._busy_until = record.busy_before
        record.source.rewind(record.seq, record.fire_us)
        if record.source.peek_fire_us() == record.fire_us:
            heappush(self._arrivals, (record.fire_us, record.index))
