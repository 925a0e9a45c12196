"""MAC frame representation.

A :class:`Frame` is what travels on the :class:`repro.channel.Channel`.
Data frames wrap an opaque upper-layer packet object (duck-typed: it
must expose ``size_bytes`` and may expose ``station`` for occupancy
accounting); ACK frames stand alone.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Optional


class FrameType(enum.Enum):
    DATA = "data"
    ACK = "ack"
    #: contention-free poll from a point coordinator (PCF-style).
    POLL = "poll"
    #: a polled station's "nothing to send" response.
    CF_NULL = "cf_null"


class Frame:
    """One MAC frame.

    Attributes:
        ftype: DATA or ACK.
        src / dst: MAC addresses (plain strings in this simulator).
        size_bytes: network-layer payload size for DATA (the MAC/PLCP
            overhead is added by the PHY timing code); 14 for ACK.
        rate_mbps: PHY rate this frame is sent at.
        seq: per-sender sequence number; retries keep the same seq so
            receivers can deduplicate.
        attempt: 1-based transmission attempt number (oracle retry
            accounting reads this; a real AP cannot, see the paper's
            Section 4.2).
        packet: opaque upper-layer payload for DATA frames.
        defer_hint: TBR's client-notification bit piggybacked on
            downlink frames and ACKs (paper Section 4.1).  ``None``
            means "no hint"; a float is the requested defer duration in
            microseconds.
    """

    __slots__ = (
        "ftype",
        "src",
        "dst",
        "size_bytes",
        "rate_mbps",
        "seq",
        "attempt",
        "packet",
        "defer_hint",
        "acked_seq",
    )

    _seq_counter = itertools.count(1)

    def __init__(
        self,
        ftype: FrameType,
        src: str,
        dst: str,
        size_bytes: int,
        rate_mbps: float,
        *,
        seq: Optional[int] = None,
        packet: Any = None,
    ) -> None:
        self.ftype = ftype
        self.src = src
        self.dst = dst
        self.size_bytes = size_bytes
        self.rate_mbps = rate_mbps
        self.seq = seq if seq is not None else next(Frame._seq_counter)
        self.attempt = 1
        self.packet = packet
        self.defer_hint: Optional[float] = None
        #: for ACK frames: the data seq being acknowledged.
        self.acked_seq: Optional[int] = None

    @property
    def is_data(self) -> bool:
        return self.ftype is FrameType.DATA

    @property
    def is_ack(self) -> bool:
        return self.ftype is FrameType.ACK

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Frame {self.ftype.value} {self.src}->{self.dst} "
            f"{self.size_bytes}B @{self.rate_mbps}Mbps seq={self.seq} "
            f"try={self.attempt}>"
        )
