"""The discrete-event simulation kernel.

Hot-path design notes
---------------------

The heap holds ``(time, priority, seq, event)`` tuples rather than bare
:class:`Event` objects, so every sift comparison inside ``heapq`` is a C
tuple comparison instead of a Python-level ``Event.__lt__`` call — in
saturated-cell workloads those comparisons used to be the single largest
cost in the profile.  ``seq`` is unique, so the tuple comparison never
falls through to comparing events.

Cancellation is lazy (a dead entry stays queued until it surfaces), but
the kernel keeps O(1) live/stale counts and compacts the heap in place
when stale entries outnumber live ones — saturated DCF cancels a
backoff or ACK-timeout event on almost every exchange, and without
compaction those corpses inflate every subsequent sift.

``reschedule``/``reschedule_at`` recycle a spent :class:`Event` object
(one that already executed or was discarded) so high-churn timers — MAC
backoff, ACK timeouts, periodic fill timers — do not allocate a fresh
event per cycle.

``Simulator.now`` is a plain attribute, not a property: it is read
several times per executed event from every layer, and a Python-level
property call each time was measurable.  Only this module assigns it
(``run`` and ``fast_forward_to``); everything else reads.
"""

from __future__ import annotations

import heapq
import random
from heapq import heapify, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.event import NUM_CATEGORIES, Event, EventCategory, EventPriority

#: Compact only when at least this many stale entries accumulated (tiny
#: heaps are cheaper to drain lazily than to rebuild).
_COMPACT_MIN_STALE = 64


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, etc.)."""


class Simulator:
    """A deterministic discrete-event simulator.

    Time is floating-point microseconds starting at 0.  Events scheduled
    at identical timestamps run in ``(priority, insertion order)`` order.
    :attr:`now` is written by the kernel alone and is read-only to
    everyone else by convention (see the module docstring).

    The kernel also owns named deterministic RNG streams
    (:meth:`rng`): every component draws randomness from a stream keyed
    by its own name, so adding a component never perturbs the draws seen
    by the others, and runs are reproducible given the seed.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        #: current simulation time in microseconds.
        self.now = 0.0
        #: heap of (time, priority, seq, event) — see module docstring.
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        #: ``until`` of the running :meth:`run` call; ``inf`` outside
        #: ``run`` and for a run with no horizon (see :meth:`next_time`).
        self._horizon = float("inf")
        self._events_executed = 0
        #: executed events per EventCategory bucket (index = category).
        self._cat_counts = [0] * NUM_CATEGORIES
        #: non-cancelled events currently queued (O(1) pending_count).
        self._live = 0
        #: cancelled events still occupying heap entries.
        self._stale = 0
        self._compactions = 0
        #: recycled transient Event objects (see schedule_transient).
        self._free: List[Event] = []
        #: optional per-event hook called as ``trace(time, callback)``
        #: just before each event's callback runs.  ``None`` (the
        #: default) costs one local truth test per event; the runtime
        #: invariant sanitizer installs its checker here.
        self.trace = None
        #: observers of fast-forward jumps, called as ``fn(old_now, new_now)``
        #: after the clock and heap have been shifted (sanitizer hooks here).
        self.ff_listeners: List[Callable[[float, float], None]] = []
        #: number of fast_forward_to() jumps and total microseconds skipped.
        self.fast_forwards = 0
        self.fast_forwarded_us = 0.0
        self._rngs: dict[str, random.Random] = {}

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def events_executed(self) -> int:
        """Number of events executed so far (for budget checks in tests)."""
        return self._events_executed

    @property
    def heap_compactions(self) -> int:
        """How many times the stale-dominated heap was rebuilt."""
        return self._compactions

    def events_by_category(self) -> dict:
        """Executed-event counts keyed by :class:`EventCategory` name.

        The names are lowercase (``traffic``, ``mac``, ``phy``,
        ``timer``, ``other``) so the mapping drops straight into JSON
        reports.  Counts are cumulative since construction, like
        :attr:`events_executed`.
        """
        return {
            category.name.lower(): self._cat_counts[category]
            for category in EventCategory
        }

    # ------------------------------------------------------------------
    # randomness
    # ------------------------------------------------------------------
    def rng(self, name: str) -> random.Random:
        """Return the named deterministic RNG stream.

        Streams are created on first use, seeded from ``(seed, name)``.
        """
        stream = self._rngs.get(name)
        if stream is None:
            stream = random.Random(f"{self.seed}/{name}")
            self._rngs[name] = stream
        return stream

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = EventPriority.NORMAL,
        category: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` us from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        # Inlined schedule_at: this is the hottest allocation site in
        # saturated cells, one delegation frame matters.
        time = self.now + delay
        prio = priority if type(priority) is int else int(priority)
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, prio, seq, callback, args, self, category)
        event._in_heap = True
        self._live += 1
        heappush(self._heap, (time, prio, seq, event))
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = EventPriority.NORMAL,
        category: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time!r}, now is {self.now!r}"
            )
        prio = priority if type(priority) is int else int(priority)
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, prio, seq, callback, args, self, category)
        event._in_heap = True
        self._live += 1
        heappush(self._heap, (time, prio, seq, event))
        return event

    def schedule_transient(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = EventPriority.NORMAL,
        category: int = 0,
    ) -> Event:
        """Schedule a fire-and-forget callback, recycling event objects.

        Like :meth:`schedule`, but the kernel takes the returned event
        back into a free list once it has executed, after which the
        object may already represent a *different* scheduled callback.
        Callers therefore MUST NOT retain the returned event past its
        execution: no :meth:`reschedule`, and no :meth:`Event.cancel`
        after it may have fired (cancelling an unrelated recycled
        occupant would silently drop that event).  Cancelling strictly
        *before* execution is safe — a cancelled transient is not
        recycled.  Use for per-frame/per-packet events nobody keeps:
        wire deliveries, channel frame-ends, one-shot notifications.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        time = self.now + delay
        prio = priority if type(priority) is int else int(priority)
        seq = self._seq
        self._seq = seq + 1
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.priority = prio
            event.seq = seq
            event.callback = callback
            event.args = args
            event.cancelled = False
            event.category = category
        else:
            event = Event(time, prio, seq, callback, args, self, category)
            event._transient = True
        event._in_heap = True
        self._live += 1
        heappush(self._heap, (time, prio, seq, event))
        return event

    def schedule_transient_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = EventPriority.NORMAL,
        category: int = 0,
    ) -> Event:
        """Absolute-time variant of :meth:`schedule_transient`.

        Needed when the target timestamp was computed elsewhere and must
        be hit exactly: going through a relative delay re-associates the
        float arithmetic (``now + (t - now)``), which can land one ulp
        off ``t``.  Same recycling contract as
        :meth:`schedule_transient`.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time!r}, now is {self.now!r}"
            )
        prio = priority if type(priority) is int else int(priority)
        seq = self._seq
        self._seq = seq + 1
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.priority = prio
            event.seq = seq
            event.callback = callback
            event.args = args
            event.cancelled = False
            event.category = category
        else:
            event = Event(time, prio, seq, callback, args, self, category)
            event._transient = True
        event._in_heap = True
        self._live += 1
        heappush(self._heap, (time, prio, seq, event))
        return event

    def reschedule(
        self,
        event: Optional[Event],
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = EventPriority.NORMAL,
        category: int = 0,
    ) -> Event:
        """Like :meth:`schedule`, but recycles ``event`` when possible.

        ``event`` may be ``None`` (plain allocation) or a previously
        returned event.  A *spent* event — already executed or already
        discarded from the heap — is reused in place; an event still
        queued (including a lazily-cancelled one) cannot be touched and a
        fresh event is allocated instead.  Either way the returned event
        is the live one.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        time = self.now + delay
        if event is None or event._in_heap or event._kernel is not self:
            return self.schedule_at(
                time, callback, *args, priority=priority, category=category
            )
        # Inlined reuse path (mirrors reschedule_at, minus the past-time
        # check: delay >= 0 guarantees time >= now).
        prio = priority if type(priority) is int else int(priority)
        seq = self._seq
        self._seq = seq + 1
        event.time = time
        event.priority = prio
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event.category = category
        event._in_heap = True
        self._live += 1
        heappush(self._heap, (time, prio, seq, event))
        return event

    def reschedule_at(
        self,
        event: Optional[Event],
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = EventPriority.NORMAL,
        category: int = 0,
    ) -> Event:
        """Absolute-time variant of :meth:`reschedule`."""
        if event is None or event._in_heap or event._kernel is not self:
            return self.schedule_at(
                time, callback, *args, priority=priority, category=category
            )
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time!r}, now is {self.now!r}"
            )
        prio = priority if type(priority) is int else int(priority)
        seq = self._seq
        self._seq = seq + 1
        event.time = time
        event.priority = prio
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event.category = category
        event._in_heap = True
        self._live += 1
        heappush(self._heap, (time, prio, seq, event))
        return event

    @staticmethod
    def cancel(event: Optional[Event]) -> None:
        """Cancel an event; ``None`` is accepted and ignored."""
        if event is not None:
            event.cancel()

    # ------------------------------------------------------------------
    # lazy-cancellation accounting
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """An in-heap event was cancelled (called by :meth:`Event.cancel`)."""
        self._live -= 1
        stale = self._stale + 1
        self._stale = stale
        if stale > _COMPACT_MIN_STALE and stale > self._live:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without stale entries.

        In-place (``heap[:] = ...``) so the loop in :meth:`run`, which
        binds the heap list locally, keeps seeing the same object.  The
        sort key ``(time, priority, seq)`` is a total order, so the
        rebuilt heap pops in exactly the same sequence.
        """
        heap = self._heap
        live_entries = []
        keep = live_entries.append
        for entry in heap:
            event = entry[3]
            if event.cancelled:
                event._in_heap = False
            else:
                keep(entry)
        heap[:] = live_entries
        heapify(heap)
        self._stale = 0
        self._compactions += 1

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run until the queue drains, ``until`` is reached, or ``stop()``.

        Events scheduled exactly at ``until`` are *not* executed; the
        clock is left at ``until`` so consecutive ``run`` calls compose.
        Returns the final simulation time.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        self._stopped = False
        executed = 0
        # Local bindings and sentinels shave per-iteration work from the
        # hottest loop in the repository: float("inf") replaces the
        # ``until is not None`` test, -1 the ``max_events`` one.
        heap = self._heap
        heappop = heapq.heappop
        free = self._free
        cat_counts = self._cat_counts
        trace = self.trace
        horizon = float("inf") if until is None else until
        self._horizon = horizon
        budget = -1 if max_events is None else max_events
        try:
            while heap:
                if self._stopped:
                    break
                if executed == budget:
                    break
                entry = heap[0]
                event = entry[3]
                if event.cancelled:
                    heappop(heap)
                    self._stale -= 1
                    event._in_heap = False
                    continue
                time = entry[0]
                if time >= horizon and until is not None:
                    # (The second test matters only for events scheduled
                    # at +inf with no horizon: those still execute.)
                    self.now = until
                    break
                heappop(heap)
                self._live -= 1
                event._in_heap = False
                self.now = time
                callback, args = event.callback, event.args
                # Break reference cycles and make double-execution obvious.
                event.callback = None  # type: ignore[assignment]
                event.args = ()
                # Read the category before the callback runs: a recycled
                # transient may already describe a different event after.
                cat_counts[event.category] += 1
                if event._transient and len(free) < 512:
                    free.append(event)
                if trace is not None:
                    trace(time, callback)
                callback(*args)
                executed += 1
                self._events_executed += 1
            else:
                # Queue drained completely.
                if until is not None and until > self.now:
                    self.now = until
        finally:
            self._running = False
            self._horizon = float("inf")
        return self.now

    def stop(self) -> None:
        """Stop the run loop after the current event completes."""
        self._stopped = True

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            _, _, _, event = heapq.heappop(heap)
            self._stale -= 1
            event._in_heap = False
        return heap[0][0] if heap else None

    def next_time(self) -> float:
        """Earliest time at which anything but the running event can act.

        The smaller of :meth:`peek` and the ``until`` horizon of the
        running :meth:`run` call — no pending event fires before it and
        no caller regains control before it, so state that only kernel
        events mutate is frozen over ``[now, next_time())``.  ``inf``
        when nothing is queued and no horizon is set.  ``stop()`` and
        ``max_events`` end a run by count, not by time, and do not
        bound it.
        """
        head = self.peek()
        horizon = self._horizon
        return horizon if head is None or head > horizon else head

    def pending_count(self) -> int:
        """Number of non-cancelled events currently queued.  O(1)."""
        return self._live

    def next_pending(self, category: Optional[int] = None) -> Optional[float]:
        """Earliest pending event time, optionally filtered by category.

        Unlike :meth:`peek` this is a full O(n) heap walk — it skips
        cancelled entries without popping them and can answer "when is
        the next *timeline* event?" (``category=EventCategory.OTHER``),
        which the fast-forward planner uses to bound a jump.  Returns
        ``None`` when nothing matching is queued.
        """
        best: Optional[float] = None
        for entry in self._heap:
            event = entry[3]
            if event.cancelled:
                continue
            if category is not None and event.category != category:
                continue
            if best is None or entry[0] < best:
                best = entry[0]
        return best

    # ------------------------------------------------------------------
    # fast-forward
    # ------------------------------------------------------------------
    def fast_forward_to(self, target: float) -> None:
        """Jump the clock to ``target``, shifting pending work with it.

        Every pending non-timeline event (category TRAFFIC/MAC/PHY/TIMER)
        keeps its *relative* distance to "now": its timestamp moves by
        ``target - now``, so in-flight transmissions, backoff countdowns
        and periodic timers resume with the exact phase they had.
        Timeline events (category OTHER — scenario perturbations, chaos
        injections) stay at their absolute times: jumping past one is a
        planner bug and raises :class:`SimulationError`.

        The caller owns the semantics of the skipped interval (crediting
        accumulators, shifting component-held absolute timestamps); the
        kernel only moves the clock and the heap.  Listeners registered
        in :attr:`ff_listeners` are notified as ``fn(old_now, new_now)``
        after the jump, which is how the runtime sanitizer distinguishes
        a sanctioned skip from a monotonicity violation.
        """
        if self._running:
            raise SimulationError("fast_forward_to() inside run()")
        delta = target - self.now
        if delta < 0:
            raise SimulationError(
                f"cannot fast-forward to {target!r}, now is {self.now!r}"
            )
        if delta == 0:
            return
        heap = self._heap
        rebuilt: List[Tuple[float, int, int, Event]] = []
        keep = rebuilt.append
        for entry in heap:
            event = entry[3]
            if event.cancelled:
                event._in_heap = False
                continue
            if event.category == EventCategory.OTHER:
                if entry[0] < target:
                    raise SimulationError(
                        f"timeline event at {entry[0]!r} pending before "
                        f"fast-forward target {target!r}"
                    )
                keep(entry)
                continue
            new_time = entry[0] + delta
            event.time = new_time
            keep((new_time, entry[1], entry[2], event))
        heap[:] = rebuilt
        heapify(heap)
        self._stale = 0
        old_now = self.now
        self.now = target
        self.fast_forwards += 1
        self.fast_forwarded_us += delta
        for listener in self.ff_listeners:
            listener(old_now, target)
