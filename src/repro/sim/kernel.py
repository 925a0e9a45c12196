"""The discrete-event simulation kernel.

Hot-path design notes
---------------------

An event is its heap entry: one mutable list,
``[time, priority, seq, callback, args, category]``, which
:meth:`Simulator.schedule` and :meth:`Simulator.schedule_at` push and
return.  Nothing else is allocated per event, and every sift comparison
inside ``heapq`` is a C list comparison that decides on ``(time,
priority, seq)`` — ``seq`` is unique, so it never reaches the callback.

There is one way to cancel: :meth:`Simulator.cancel`.  It clears the
entry's callback (``entry[3] = None``) and the entry stays queued until
it surfaces, when ``run`` drops it; ``run`` also clears the callback of
an entry it pops to execute.  The kernel never reuses an entry, so a
caller may keep one and cancel it at any time: cancelling an entry that
already ran or was cancelled does nothing.  The kernel counts the
stale entries (the rest of the heap is live) and compacts the heap in
place when they outnumber the live ones — saturated DCF cancels a
backoff or ACK-timeout on almost every exchange, and without
compaction those corpses inflate every subsequent sift.

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

from repro.sim.event import NUM_CATEGORIES, EventCategory, EventPriority

#: A scheduled event: ``[time, priority, seq, callback, args, category]``
#: (see the module docstring); ``callback`` is ``None`` once it ran or
#: was cancelled.
Entry = List[Any]

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
        #: heap of entries — see the module docstring.
        self._heap: List[Entry] = []
        self._seq = 0
        self._running = False
        #: ``until`` of the running :meth:`run` call; ``inf`` outside
        #: ``run`` and for a run with no horizon (see :meth:`next_time`).
        self._horizon = float("inf")
        #: events whose callback returned, per EventCategory bucket
        #: (index = category); their sum is :attr:`events_executed`.
        self._cat_counts = [0] * NUM_CATEGORIES
        #: cancelled entries still queued; the rest of the heap is live.
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
    ) -> Entry:
        """Schedule ``callback(*args)`` to run ``delay`` us from now.

        Returns the heap entry, the handle :meth:`cancel` takes.
        """
        if not (delay >= 0):  # also rejects NaN
            raise SimulationError(f"negative delay {delay!r}")
        # Inlined schedule_at: this is the hottest allocation site in
        # saturated cells, one delegation frame matters.
        seq = self._seq
        self._seq = seq + 1
        entry = [self.now + delay, priority, seq, callback, args, category]
        heappush(self._heap, entry)
        return entry

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = EventPriority.NORMAL,
        category: int = 0,
    ) -> Entry:
        """Schedule ``callback(*args)`` at absolute time ``time``.

        The event fires at exactly ``time``: callers that computed a
        timestamp elsewhere use this rather than :meth:`schedule`, whose
        ``now + (time - now)`` can land one ulp off.
        """
        if not (time >= self.now):  # also rejects NaN
            raise SimulationError(
                f"cannot schedule at {time!r}, now is {self.now!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        entry = [time, priority, seq, callback, args, category]
        heappush(self._heap, entry)
        return entry

    def cancel(self, entry: Optional[Entry]) -> None:
        """Cancel a scheduled entry.

        ``None``, and an entry that already ran or was cancelled, are
        ignored.
        """
        if entry is None or entry[3] is None:
            return
        entry[3] = None
        stale = self._stale + 1
        self._stale = stale
        if stale > _COMPACT_MIN_STALE and stale > len(self._heap) - stale:
            self._compact()

    # ------------------------------------------------------------------
    # lazy-cancellation accounting
    # ------------------------------------------------------------------
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
            if entry[3] is not None:
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
                callback = entry[3]
                if callback is None:
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
                self.now = time
                args = entry[4]
                # Break reference cycles and mark the entry spent, so a
                # later ``cancel`` ignores it.
                entry[3] = None
                entry[4] = ()
                if on_events:
                    for on_event in on_events:
                        on_event(time, callback)
                callback(*args)
                cat_counts[entry[5]] += 1
            else:
                # Queue drained completely.
                if until is not None and until > self.now:
                    self.now = until
        finally:
            self._running = False
            self._horizon = float("inf")
        return self.now

    def next_time(self) -> float:
        """Earliest time at which anything but the running event can act.

        The smaller of the next pending event's time and the ``until``
        horizon of the running :meth:`run` call — no pending event fires
        before it and no caller regains control before it, so state that
        only kernel events mutate is frozen over ``[now, next_time())``.
        ``inf`` when nothing is queued and no horizon is set.  A run ends
        only at its horizon or when the queue drains, so nothing else
        bounds it.  Cancelled entries at the head are popped on the way.
        """
        heap = self._heap
        while heap and heap[0][3] is None:
            heapq.heappop(heap)
            self._stale -= 1
        horizon = self._horizon
        return heap[0][0] if heap and heap[0][0] < horizon else horizon

    def pending_count(self) -> int:
        """Number of live (not cancelled) entries currently queued.  O(1)."""
        return len(self._heap) - self._stale

    def next_pending(self, category: Optional[int] = None) -> Optional[float]:
        """Earliest pending event time, optionally filtered by category.

        Unlike :meth:`next_time` this is a full O(n) heap walk — it skips
        cancelled entries without popping them and can answer "when is
        the next *timeline* event?" (``category=EventCategory.OTHER``),
        which the fast-forward planner uses to bound a jump.  Returns
        ``None`` when nothing matching is queued.
        """
        best: Optional[float] = None
        for entry in self._heap:
            if entry[3] is None:
                continue
            if category is not None and entry[5] != category:
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
        live = [entry for entry in heap if entry[3] is not None]
        for entry in live:
            if entry[5] == EventCategory.OTHER and entry[0] < target:
                raise SimulationError(
                    f"timeline event at {entry[0]!r} pending before "
                    f"fast-forward target {target!r}"
                )
        for entry in live:
            if entry[5] != EventCategory.OTHER:
                entry[0] += delta
        heap[:] = live
        heapify(heap)
        self._stale = 0
        old_now = self.now
        self.now = target
        self.fast_forwards += 1
        self.fast_forwarded_us += delta
        for observer in self._observers:
            observer.on_fast_forward(old_now, target)
