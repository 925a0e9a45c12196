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

:meth:`Simulator.schedule` and :meth:`Simulator.schedule_at` are the only
ways to queue a callback, and each call returns a fresh :class:`Event`
that the kernel never reuses.  Holding a reference and cancelling it
later is therefore always safe: an event that already ran or was
discarded is simply inert, never a different callback.

``Simulator.now`` is a plain attribute, not a property: it is read
several times per executed event from every layer, and a Python-level
property call each time was measurable.  Only this module assigns it
(``run`` and ``fast_forward_to``); everything else reads.

A run ends by simulated time alone: at its ``until`` horizon, or when
the queue drains.  Every result is measured over a window of simulated
time, so there is no count-based way to end one.

Observation has one surface: an attach-ordered tuple of observers
(:meth:`Simulator.observe` / :meth:`Simulator.unobserve`), each an
:class:`Observer`.  ``run`` binds their ``on_event`` methods once at
entry and tests the tuple once per event, so an empty tuple costs one
truth test; every ``fast_forward_to`` jump reaches their
``on_fast_forward``.  The runtime sanitizers and any recorder attach
side by side, and neither may change what the kernel executes.
"""

from __future__ import annotations

import heapq
import random
from heapq import heapify, heappush
from typing import Any, Callable, List, Optional, Protocol, Tuple

from repro.sim.event import NUM_CATEGORIES, Event, EventCategory, EventPriority

#: Compact only when at least this many stale entries accumulated (tiny
#: heaps are cheaper to drain lazily than to rebuild).
_COMPACT_MIN_STALE = 64


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, etc.)."""


class Observer(Protocol):
    """What :meth:`Simulator.observe` attaches."""

    def on_event(self, time: float, callback: Callable[..., Any]) -> None:
        """Called just before each event's callback runs."""

    def on_fast_forward(self, old_now: float, new_now: float) -> None:
        """Called after each jump, once the clock and heap have moved."""


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
        #: ``until`` of the running :meth:`run` call; ``inf`` outside
        #: ``run`` and for a run with no horizon (see :meth:`next_time`).
        self._horizon = float("inf")
        #: events whose callback returned, per EventCategory bucket
        #: (index = category); their sum is :attr:`events_executed`.
        self._cat_counts = [0] * NUM_CATEGORIES
        #: non-cancelled events currently queued (O(1) pending_count).
        self._live = 0
        #: cancelled events still occupying heap entries.
        self._stale = 0
        self._compactions = 0
        #: attached observers in attach order (see :meth:`observe`).
        self._observers: Tuple[Observer, ...] = ()
        #: number of fast_forward_to() jumps and total microseconds skipped.
        self.fast_forwards = 0
        self.fast_forwarded_us = 0.0
        self._rngs: dict[str, random.Random] = {}

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def events_executed(self) -> int:
        """Events whose callback has returned so far (for budget checks)."""
        return sum(self._cat_counts)

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
    # observation
    # ------------------------------------------------------------------
    def observe(self, observer: Observer) -> None:
        """Attach ``observer`` after those already attached.

        Attaching one that is already attached does nothing.  ``run``
        binds the observers at entry, so attaching inside ``run()``
        raises :class:`SimulationError`, as ``fast_forward_to`` does.
        """
        if self._running:
            raise SimulationError("observe() inside run()")
        if all(attached is not observer for attached in self._observers):
            self._observers += (observer,)

    def unobserve(self, observer: Observer) -> None:
        """Detach ``observer``; one not attached is ignored."""
        if self._running:
            raise SimulationError("unobserve() inside run()")
        self._observers = tuple(
            attached for attached in self._observers if attached is not observer
        )

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
        if not (delay >= 0):  # also rejects NaN
            raise SimulationError(f"negative delay {delay!r}")
        # Inlined schedule_at: this is the hottest allocation site in
        # saturated cells, one delegation frame matters.
        time = self.now + delay
        prio = priority if type(priority) is int else int(priority)
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, callback, args, self, category)
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
        """Schedule ``callback(*args)`` at absolute time ``time``.

        The event fires at exactly ``time``: callers that computed a
        timestamp elsewhere use this rather than :meth:`schedule`, whose
        ``now + (time - now)`` can land one ulp off.
        """
        if not (time >= self.now):  # also rejects NaN
            raise SimulationError(
                f"cannot schedule at {time!r}, now is {self.now!r}"
            )
        prio = priority if type(priority) is int else int(priority)
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, callback, args, self, category)
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
            if not entry[3].cancelled:
                keep(entry)
        heap[:] = live_entries
        heapify(heap)
        self._stale = 0
        self._compactions += 1

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run until ``until`` is reached or the queue drains.

        Events scheduled exactly at ``until`` are *not* executed; the
        clock is left at ``until`` so consecutive ``run`` calls compose.
        With no ``until`` the run ends when the queue drains.  Returns
        the final simulation time.  A NaN ``until`` or one before
        ``now`` (the clock never moves back) raises
        :class:`SimulationError`.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        if until is not None and not (until >= self.now):  # also rejects NaN
            raise SimulationError(
                f"cannot run until {until!r}, now is {self.now!r}"
            )
        self._running = True
        # Local bindings and an inf sentinel for the ``until is not
        # None`` test shave per-iteration work from the hottest loop in
        # the repository.
        heap = self._heap
        heappop = heapq.heappop
        cat_counts = self._cat_counts
        on_events = tuple(observer.on_event for observer in self._observers)
        horizon = float("inf") if until is None else until
        self._horizon = horizon
        try:
            while heap:
                entry = heap[0]
                event = entry[3]
                if event.cancelled:
                    heappop(heap)
                    self._stale -= 1
                    continue
                time = entry[0]
                if time >= horizon and until is not None:
                    # (The second test matters only for events scheduled
                    # at +inf with no horizon: those still execute.)
                    self.now = until
                    break
                heappop(heap)
                self._live -= 1
                self.now = time
                callback, args = event.callback, event.args
                # Break reference cycles, make double-execution obvious
                # and mark the event spent for ``Event.cancel``.
                event.callback = None  # type: ignore[assignment]
                event.args = ()
                if on_events:
                    for on_event in on_events:
                        on_event(time, callback)
                callback(*args)
                cat_counts[event.category] += 1
            else:
                # Queue drained completely.
                if until is not None and until > self.now:
                    self.now = until
        finally:
            self._running = False
            self._horizon = float("inf")
        return self.now

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
            self._stale -= 1
        return heap[0][0] if heap else None

    def next_time(self) -> float:
        """Earliest time at which anything but the running event can act.

        The smaller of :meth:`peek` and the ``until`` horizon of the
        running :meth:`run` call — no pending event fires before it and
        no caller regains control before it, so state that only kernel
        events mutate is frozen over ``[now, next_time())``.  ``inf``
        when nothing is queued and no horizon is set.  A run ends only
        at its horizon or when the queue drains, so nothing else bounds
        it.
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
        kernel only moves the clock and the heap.  Every observer's
        ``on_fast_forward(old_now, new_now)`` runs after the jump, which
        is how the runtime sanitizer distinguishes a sanctioned skip
        from a monotonicity violation.
        """
        if self._running:
            raise SimulationError("fast_forward_to() inside run()")
        delta = target - self.now
        if not (delta >= 0):  # also rejects NaN
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
        for observer in self._observers:
            observer.on_fast_forward(old_now, target)
