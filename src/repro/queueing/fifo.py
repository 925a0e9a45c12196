"""The Exp-Normal AP queue: one shared drop-tail FIFO.

The paper's unmodified AP stores all downlink packets in the kernel
interface queue (maximum 110 packets) with no per-station structure.
Arrival order alone decides transmission order, which for competing TCP
flows self-clocks into approximately equal *packet* (hence throughput)
shares — throughput-based fairness.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.queueing.base import ApScheduler, StationQueue
from repro.transport.packet import try_release


class ApFifoScheduler(ApScheduler):
    """Single shared FIFO; ignores per-station structure entirely."""

    #: Tail drops count here, not on the (always empty) station queues.
    TIME_STATE = dict(counters=("fifo_dropped",))

    def __init__(self, total_capacity: int = 110) -> None:
        super().__init__(total_capacity=total_capacity)
        self._fifo: deque = deque()
        self.fifo_dropped = 0

    def disassociate(self, station: str) -> int:
        """Drop the station and purge its packets from the shared FIFO."""
        if station not in self.queues:
            return 0
        flushed = super().disassociate(station)  # bookkeeping; queue empty
        kept: deque = deque()
        for packet in self._fifo:
            if packet.station == station:
                flushed += 1
                self.flushed_on_disassociate += 1
                try_release(packet)
            else:
                kept.append(packet)
        self._fifo = kept
        return flushed

    def enqueue(self, packet: Any) -> bool:
        if packet.station not in self.queues:
            if packet.station in self._departed:
                self.refused_departed += 1
                return False
            self.associate(packet.station)
        if len(self._fifo) >= self.total_capacity:
            self.fifo_dropped += 1
            return False
        self._fifo.append(packet)
        if self.mac is not None:
            self.mac.notify_pending()
        return True

    def refuse(self, station: str) -> bool:
        if station not in self.queues:
            if station in self._departed:
                self.refused_departed += 1
                return True
            return False
        if len(self._fifo) < self.total_capacity:
            return False
        self.fifo_dropped += 1
        return True

    def dequeue(self) -> Any:
        if not self._fifo:
            return None
        return self._fifo.popleft()

    def _select_queue(self) -> Optional[StationQueue]:  # pragma: no cover
        raise AssertionError("ApFifoScheduler overrides dequeue directly")

    def backlog(self, station: str) -> int:
        return sum(1 for p in self._fifo if p.station == station)

    def dropped(self) -> int:
        return self.fifo_dropped
