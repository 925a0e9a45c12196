"""A drop-tail FIFO transmit scheduler.

This is the queue every *station* uses for its own traffic, and also
models the plain "kernel interface queue" of the paper's Exp-Normal AP
configuration (a single FIFO of up to 110 packets shared by all
destinations).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, List, Optional


class FifoTxScheduler:
    """Single drop-tail FIFO feeding a :class:`repro.mac.DcfMac`."""

    def __init__(self, capacity: int = 110) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.queue: deque = deque()
        self.mac = None
        self.dropped = 0
        self.enqueued = 0
        #: listeners called as (packet, airtime_us, success, attempts, rate).
        self.completion_listeners: List[Callable] = []
        #: optional gate: when it returns False the queue withholds the
        #: head packet (used by the TBR client agent's defer behaviour).
        self.release_gate: Optional[Callable[[], bool]] = None

    # ------------------------------------------------------------------
    # TxScheduler protocol
    # ------------------------------------------------------------------
    def bind(self, mac) -> None:
        self.mac = mac

    def dequeue(self) -> Any:
        if not self.queue:
            return None
        if self.release_gate is not None and not self.release_gate():
            return None
        return self.queue.popleft()

    def on_complete(
        self, packet: Any, airtime_us: float, success: bool, attempts: int,
        rate_mbps: float,
    ) -> None:
        for listener in self.completion_listeners:
            listener(packet, airtime_us, success, attempts, rate_mbps)

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def enqueue(self, packet: Any) -> bool:
        """Add a packet; returns False (and drops it) when full."""
        if len(self.queue) >= self.capacity:
            self.dropped += 1
            return False
        self.queue.append(packet)
        self.enqueued += 1
        if self.mac is not None:
            self.mac.notify_pending()
        return True

    def __len__(self) -> int:
        return len(self.queue)

    def wake(self) -> None:
        """Re-offer the head packet (called when a release gate opens)."""
        if self.queue and self.mac is not None:
            self.mac.notify_pending()
