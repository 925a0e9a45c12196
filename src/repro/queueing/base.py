"""Shared machinery for AP downlink schedulers."""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Optional, Set

from repro.transport.packet import try_release


class StationQueue:
    """A drop-tail per-station queue."""

    __slots__ = ("station", "capacity", "queue", "dropped", "enqueued_bytes")

    TIME_STATE = dict(counters=("dropped", "enqueued_bytes"))

    def __init__(self, station: str, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.station = station
        self.capacity = capacity
        self.queue: deque = deque()
        self.dropped = 0
        self.enqueued_bytes = 0

    def push(self, packet: Any) -> bool:
        if len(self.queue) >= self.capacity:
            self.dropped += 1
            return False
        self.queue.append(packet)
        self.enqueued_bytes += packet.size_bytes
        return True

    def pop(self) -> Any:
        return self.queue.popleft()

    def head(self) -> Any:
        return self.queue[0] if self.queue else None

    def __len__(self) -> int:
        return len(self.queue)

    def __bool__(self) -> bool:
        return bool(self.queue)


class ApScheduler:
    """Base class for AP downlink schedulers (implements TxScheduler).

    Subclasses override :meth:`_select_queue` (which station's queue to
    serve next) and may override :meth:`on_complete` /
    :meth:`on_uplink_complete` for accounting.  The AP node calls
    :meth:`enqueue` for every downlink packet (the paper's APPTXEVENT)
    and :meth:`on_uplink_complete` with each uplink frame it receives;
    :meth:`on_complete` is its MAC's first completion listener.

    Total buffer space is divided equally among associated stations when
    ``per_station_capacity`` is None, matching the paper's experimental
    setup (n queues of 100/n packets).
    """

    #: The throughput-fair disciplines hold no clocks; TBR adds its own.
    TIME_STATE = dict(
        parts=("queues",),
        phase={"_rr_index": "round-robin cursor: bounded by len(_order)"},
    )

    def __init__(
        self,
        total_capacity: int = 100,
        per_station_capacity: Optional[int] = None,
    ) -> None:
        self.total_capacity = total_capacity
        self.per_station_capacity = per_station_capacity
        self.mac = None
        self.queues: Dict[str, StationQueue] = {}
        self._order: List[str] = []
        self._rr_index = 0
        #: stations that explicitly disassociated; arrivals for them are
        #: refused instead of lazily re-associating (a late wired-pipe
        #: packet must not resurrect a departed station's queue).
        self._departed: Set[str] = set()
        #: drop counts of queues that no longer exist (keeps ``dropped``
        #: monotonic across disassociations).
        self._departed_dropped = 0
        #: arrivals refused because their station had disassociated.
        self.refused_departed = 0
        #: packets flushed (and released) by :meth:`disassociate`.
        self.flushed_on_disassociate = 0

    # ------------------------------------------------------------------
    # association
    # ------------------------------------------------------------------
    def associate(self, station: str) -> None:
        """Create the station's queue (the paper's ASSOCIATEEVENT)."""
        self._departed.discard(station)
        if station in self.queues:
            return
        self._order.append(station)
        self._rebuild_queues()

    def disassociate(self, station: str) -> int:
        """Tear the station's queue down (the inverse of ASSOCIATEEVENT).

        Queued packets are flushed back to their :class:`PacketPool`
        (``packet.release()``; plain packets are simply dropped), the
        shared buffer is re-divided among the remaining stations, and
        subsequent arrivals for the station are refused until it
        explicitly re-associates.  Returns the number of packets
        flushed; unknown or already-departed stations are a no-op.
        """
        queue = self.queues.pop(station, None)
        if queue is None:
            return 0
        idx = self._order.index(station)
        del self._order[idx]
        # Keep the round-robin cursor pointing at the same survivor.
        if idx < self._rr_index:
            self._rr_index -= 1
        self._rr_index = self._rr_index % len(self._order) if self._order else 0
        self._departed.add(station)
        self._departed_dropped += queue.dropped
        flushed = len(queue.queue)
        self.flushed_on_disassociate += flushed
        for packet in queue.queue:
            try_release(packet)
        queue.queue.clear()
        self._rebuild_queues()
        return flushed

    def is_associated(self, station: str) -> bool:
        return station in self.queues

    def _station_capacity(self) -> int:
        if self.per_station_capacity is not None:
            return self.per_station_capacity
        n = max(1, len(self._order))
        return max(1, self.total_capacity // n)

    def _rebuild_queues(self) -> None:
        capacity = self._station_capacity()
        rebuilt: Dict[str, StationQueue] = {}
        for station in self._order:
            old = self.queues.get(station)
            q = StationQueue(station, capacity)
            if old is not None:
                q.queue = old.queue
                q.dropped = old.dropped
                q.enqueued_bytes = old.enqueued_bytes
            rebuilt[station] = q
        self.queues = rebuilt

    def stations(self) -> List[str]:
        return list(self._order)

    # ------------------------------------------------------------------
    # producer side (AP node)
    # ------------------------------------------------------------------
    def enqueue(self, packet: Any) -> bool:
        """APPTXEVENT: queue a downlink packet for its station."""
        station = packet.station
        if station not in self.queues:
            if station in self._departed:
                self.refused_departed += 1
                return False
            self.associate(station)
        ok = self.queues[station].push(packet)
        if ok and self.mac is not None:
            self.mac.notify_pending()
        return ok

    # ------------------------------------------------------------------
    # drop-before-alloc admission (demand-driven traffic engine)
    # ------------------------------------------------------------------
    def refuse(self, station: str) -> bool:
        """Refuse-and-count in one call, or say no without side effects.

        If :meth:`enqueue` would turn an arrival for ``station`` away
        right now, account the loss (tail drop or ``refused_departed``)
        exactly as ``enqueue`` returning ``False`` does, but with no
        packet object, and return ``True``.  Otherwise return ``False``
        and touch nothing: an unknown station is *not* associated here,
        since that side effect belongs to the :meth:`enqueue` of the
        arrival that is actually delivered.  The AP's demand path and
        the wire pump's drain loop call this once per offered packet in
        a saturated cell, hence the single flat method.
        """
        queue = self.queues.get(station)
        if queue is None:
            if station in self._departed:
                self.refused_departed += 1
                return True
            return False
        if len(queue.queue) < queue.capacity:
            return False
        queue.dropped += 1
        return True

    def on_uplink_complete(
        self, frame, airtime_us: Optional[float] = None
    ) -> None:
        """The AP received uplink ``frame`` (``airtime_us``: its price,
        when the caller knows it).  Throughput-fair schedulers ignore
        it; TBR prices an unpriced frame and charges ``frame.src``."""

    # ------------------------------------------------------------------
    # TxScheduler protocol
    # ------------------------------------------------------------------
    def bind(self, mac) -> None:
        self.mac = mac

    def dequeue(self) -> Any:
        queue = self._select_queue()
        if queue is None:
            return None
        return queue.pop()

    def _select_queue(self) -> Optional[StationQueue]:
        raise NotImplementedError

    def on_complete(self, report) -> None:
        """COMPLETEEVENT: the AP's MAC finished an exchange (an
        ``ExchangeReport``).  Only TBR charges for it; the rest ignore it."""

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def backlog(self, station: str) -> int:
        q = self.queues.get(station)
        return len(q) if q is not None else 0

    def dropped(self) -> int:
        return self._departed_dropped + sum(
            q.dropped for q in self.queues.values()
        )

