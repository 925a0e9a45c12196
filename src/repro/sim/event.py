"""Events and event priorities for the simulation kernel."""

from __future__ import annotations

import enum
from typing import Any, Callable, Optional


class EventCategory(enum.IntEnum):
    """Coarse accounting buckets for kernel events.

    Every scheduled event carries a category tag so the kernel can
    answer *where the events went* (``Simulator.events_by_category``),
    not just how many executed.  The buckets mirror the simulator's
    layers:

    * ``TRAFFIC`` — offered-load machinery: source timers, wired-link
      deliveries, demand-driven pump wakes, transport timers.
    * ``MAC`` — 802.11 state machine: backoff countdowns, ACK
      responses and timeouts, burst continuations, polling cycles.
    * ``PHY`` — frame-end / reception events on the channel.
    * ``TIMER`` — periodic housekeeping (TBR fill/adjust, monitors).
    * ``OTHER`` — everything untagged.
    """

    OTHER = 0
    TRAFFIC = 1
    MAC = 2
    PHY = 3
    TIMER = 4


#: Number of category buckets (sizes the kernel's counter array).
NUM_CATEGORIES = 5


class EventPriority(enum.IntEnum):
    """Tie-break ordering for events scheduled at the same timestamp.

    Lower values run first.  The MAC relies on this ordering to get
    slot-synchronous collision semantics right:

    * ``TX_START`` — a station whose backoff expired this slot commits to
      transmitting before anyone reacts to new carrier.
    * ``PHY`` — frame-end / reception events.
    * ``NORMAL`` — default application and protocol timers.
    * ``MONITOR`` — metric sampling sees the post-update state.
    """

    TX_START = 0
    PHY = 1
    HIGH = 2
    NORMAL = 5
    LOW = 8
    MONITOR = 10


class Event:
    """A scheduled callback.

    Events are created by :meth:`repro.sim.kernel.Simulator.schedule` and
    support *lazy cancellation*: :meth:`cancel` marks the event dead and
    the kernel discards it when it reaches the head of the heap.  The
    kernel keeps live/stale counts (via ``_kernel``) so cancellation is
    O(1) and heaps dominated by dead entries can be compacted.

    A spent event (executed or discarded, i.e. no longer in the heap)
    can be recycled through :meth:`Simulator.reschedule`, which saves an
    allocation on high-churn timers such as MAC backoff and ACK-timeout.
    """

    __slots__ = (
        "time",
        "priority",
        "seq",
        "callback",
        "args",
        "cancelled",
        "category",
        "_kernel",
        "_in_heap",
        "_transient",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
        kernel: Optional[object] = None,
        category: int = 0,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: accounting bucket (:class:`EventCategory`) counted on execution.
        self.category = category
        #: owning kernel, informed of cancellations for O(1) accounting.
        self._kernel = kernel
        #: True while a heap entry references this event.
        self._in_heap = False
        #: True for fire-and-forget events the kernel may recycle after
        #: execution (see Simulator.schedule_transient).
        self._transient = False

    def cancel(self) -> None:
        """Mark this event dead; the kernel will skip it."""
        if not self.cancelled:
            self.cancelled = True
            if self._in_heap and self._kernel is not None:
                self._kernel._note_cancelled()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.seq) < (
            other.time,
            other.priority,
            other.seq,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"<Event t={self.time:.3f} prio={self.priority} {name} {state}>"
