"""Deficit Round Robin (Shreedhar & Varghese, SIGCOMM '95).

Byte-accurate throughput fairness across station queues: each backlogged
queue receives one quantum of byte credit per round-robin visit and is
served while its deficit covers the head packet.  DRR is the strongest
*throughput-based* fairness baseline in the paper's related work ([24]);
with equal packet sizes it coincides with round robin, with mixed sizes
it equalizes bytes rather than packets.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional

from repro.queueing.base import ApScheduler, StationQueue


class DrrScheduler(ApScheduler):
    """Deficit Round Robin over per-station queues."""

    TIME_STATE = dict(
        phase={"deficit": "byte deficits: bounded by quantum + one packet"}
    )

    def __init__(
        self,
        total_capacity: int = 100,
        per_station_capacity: Optional[int] = None,
        quantum_bytes: int = 1500,
    ) -> None:
        super().__init__(total_capacity, per_station_capacity)
        if quantum_bytes < 1:
            raise ValueError("quantum must be >= 1 byte")
        self.quantum_bytes = quantum_bytes
        self.deficit: Dict[str, float] = {}
        self._visit_granted = False

    def associate(self, station: str) -> None:
        super().associate(station)
        self.deficit.setdefault(station, 0.0)

    def disassociate(self, station: str) -> int:
        # If the departing station was the one under the round-robin
        # cursor, its visit ends with it: the successor the base class
        # repoints the cursor at must start a fresh visit (and receive
        # its quantum grant), not inherit a half-spent one.
        was_under_cursor = (
            station in self.queues
            and self._order[self._rr_index % len(self._order)] == station
        )
        flushed = super().disassociate(station)
        if was_under_cursor:
            self._visit_granted = False
        self.deficit.pop(station, None)
        return flushed

    def _advance(self) -> None:
        self._rr_index = (self._rr_index + 1) % max(1, len(self._order))
        self._visit_granted = False

    def _select_queue(self) -> Optional[StationQueue]:
        n = len(self._order)
        if n == 0:
            return None
        backlogged = [self.queues[s] for s in self._order if self.queues[s]]
        if not backlogged:
            return None
        # Each full round adds one quantum to every backlogged queue, so
        # after ceil(max_head / quantum) rounds some head is serviceable.
        max_head = max(q.head().size_bytes for q in backlogged)
        max_visits = (math.ceil(max_head / self.quantum_bytes) + 2) * n
        for _ in range(max_visits):
            station = self._order[self._rr_index % n]
            queue = self.queues[station]
            if not queue:
                # Empty queues forfeit their deficit (standard DRR).
                self.deficit[station] = 0.0
                self._advance()
                continue
            if not self._visit_granted:
                self.deficit[station] += self.quantum_bytes
                self._visit_granted = True
            head = queue.head()
            if self.deficit[station] >= head.size_bytes:
                self.deficit[station] -= head.size_bytes
                # Stay on this queue (no re-grant) so the remaining
                # deficit can serve follow-on packets this visit.
                return queue
            self._advance()
        return None

    def dequeue(self) -> Any:
        queue = self._select_queue()
        if queue is None:
            return None
        return queue.pop()
