"""Event categories and priorities for the simulation kernel."""

from __future__ import annotations

import enum


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

