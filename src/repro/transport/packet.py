"""The network-layer packet that rides inside MAC data frames."""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional


class Packet:
    """An IP-datagram-sized unit handed to MACs, queues and links.

    Attributes:
        size_bytes: total network-layer size (payload + IP/TCP headers).
        station: address of the wireless station this packet belongs to
            (uplink source or downlink destination) — AP queues key on
            it and TBR charges its tokens.
        mac_dst: MAC destination, set by the node layer before handing
            the packet to a MAC ("ap" for uplink, the station address
            for downlink).
        on_receive: delivery callback installed by the destination
            transport endpoint; node layers simply call it.
        to_station: True when the packet flows toward the wireless
            station (downlink over the air).
        payload: opaque transport payload (TCP segment / UDP datagram).
        created_us: creation timestamp (for delay metrics).
    """

    __slots__ = (
        "size_bytes",
        "station",
        "mac_dst",
        "on_receive",
        "to_station",
        "payload",
        "created_us",
        "uid",
        "_pool",
    )

    _uid_counter = itertools.count(1)

    def __init__(
        self,
        size_bytes: int,
        station: str,
        *,
        to_station: bool,
        payload: Any = None,
        on_receive: Optional[Callable[["Packet"], None]] = None,
        created_us: float = 0.0,
    ) -> None:
        if size_bytes <= 0:
            raise ValueError(f"size_bytes must be positive, got {size_bytes!r}")
        self.size_bytes = size_bytes
        self.station = station
        self.mac_dst: Optional[str] = None
        self.on_receive = on_receive
        self.to_station = to_station
        self.payload = payload
        self.created_us = created_us
        self.uid = next(Packet._uid_counter)
        #: owning PacketPool for recycled packets (None = plain packet).
        self._pool: Optional["PacketPool"] = None

    def deliver(self) -> None:
        """Invoke the destination endpoint's callback."""
        if self.on_receive is not None:
            self.on_receive(self)

    def release(self) -> None:
        """Return a pooled packet to its freelist; no-op otherwise.

        Called by the MAC after the exchange's completion listeners have
        run — the last point in a packet's life where anything in the
        simulator may still read it.  Callers that retain completion
        reports must copy the fields they need.
        """
        pool = self._pool
        if pool is not None:
            # Disown first so a double release (or a stale reference)
            # cannot insert the same packet into the freelist twice.
            self._pool = None
            pool.put(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        direction = "down" if self.to_station else "up"
        return f"<Packet #{self.uid} {self.size_bytes}B sta={self.station} {direction}>"


def try_release(packet: Any) -> None:
    """Return ``packet`` to its pool when it supports ``release()``.

    Queues, schedulers and MACs are duck-typed: tests feed them minimal
    packet stand-ins without a freelist, so teardown paths release
    through this helper instead of assuming the attribute exists.
    """
    release = getattr(packet, "release", None)
    if release is not None:
        release()


class PacketPool:
    """A bounded freelist of spent :class:`Packet` objects.

    Saturated downlink scenarios used to allocate a fresh packet (plus
    its transport payload) for every offered datagram even though most
    were immediately tail-dropped.  With drop-before-alloc the dropped
    ones never exist, and the ones that do get *consumed* — delivered or
    abandoned by the MAC — come back here instead of to the allocator.

    The pool is dumb on purpose: it stores whole packets, payload object
    still attached, and leaves re-initialization to the acquiring
    source (which overwrites every field, so no state can leak between
    flows — see ``get``'s contract).
    """

    __slots__ = ("max_size", "_free", "allocated", "reused", "recycled")

    #: ``allocated + reused - recycled`` is the outstanding-packet count
    #: the sanitizer balances against live packets; a jump
    #: (``repro.sim.steady``) scaling each term with its own rounding
    #: would unbalance it.
    TIME_STATE = dict(
        phase=dict.fromkeys(
            ("allocated", "reused", "recycled"), "term of the pool balance"
        )
    )

    def __init__(self, max_size: int = 256) -> None:
        if max_size < 0:
            raise ValueError("max_size must be >= 0")
        self.max_size = max_size
        self._free: list = []
        #: packets handed out that required a fresh allocation.
        self.allocated = 0
        #: packets handed out from the freelist.
        self.reused = 0
        #: packets returned (caps at max_size retained).
        self.recycled = 0

    def __len__(self) -> int:
        return len(self._free)

    def get(self) -> Optional[Packet]:
        """Pop a spent packet, or ``None`` when the freelist is empty.

        The caller MUST overwrite ``size_bytes``, ``station``,
        ``mac_dst``, ``on_receive``, ``to_station``, ``payload`` and
        ``created_us`` before handing the packet to anyone — the pool
        does not scrub fields.
        """
        if self._free:
            self.reused += 1
            return self._free.pop()
        self.allocated += 1
        return None

    def put(self, packet: Packet) -> None:
        """Return a consumed packet to the freelist."""
        self.recycled += 1
        if len(self._free) < self.max_size:
            self._free.append(packet)
