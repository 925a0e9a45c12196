"""Recurring timers built on top of the kernel."""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.event import Event, EventCategory, EventPriority
from repro.sim.kernel import Simulator


class PeriodicTimer:
    """Calls ``callback(elapsed_us)`` every ``period`` microseconds.

    The callback receives the time elapsed since its previous invocation
    (or since :meth:`start`), which is exactly what token-fill style
    handlers such as TBR's FILLEVENT need.
    """

    #: The pending fire event moves with the heap on a jump
    #: (``repro.sim.steady``); ``_last_fire`` must too, or the next
    #: callback gets the whole skip as ``elapsed`` (TBR's fill timer
    #: would grant the skip's worth of tokens at once).
    TIME_STATE = dict(clocks=("_last_fire",))

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[float], Any],
        *,
        priority: int = EventPriority.NORMAL,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period!r}")
        self.sim = sim
        self.period = period
        self.callback = callback
        self.priority = priority
        self._event: Optional[Event] = None
        self._last_fire: float = 0.0
        self._running = False

    def start(self) -> None:
        """Start (or restart) the timer; first fire is one period from now."""
        self.stop()
        self._running = True
        self._last_fire = self.sim.now
        self._schedule_next()

    def stop(self) -> None:
        """Stop the timer; no further callbacks fire."""
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _schedule_next(self) -> None:
        # Recycle the just-fired event object (timer-reuse fast path);
        # a cancelled-in-heap event falls back to a fresh allocation.
        self._event = self.sim.reschedule(
            self._event, self.period, self._fire,
            priority=self.priority, category=EventCategory.TIMER,
        )

    def _fire(self) -> None:
        if not self._running:
            return
        elapsed = self.sim.now - self._last_fire
        self._last_fire = self.sim.now
        self._schedule_next()
        self.callback(elapsed)
