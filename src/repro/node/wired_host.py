"""A host on the wired backbone behind the AP."""

from __future__ import annotations

from typing import Callable, Optional

from repro.node.access_point import AccessPoint
from repro.transport.packet import Packet
from repro.transport.udp import UdpDownlinkSource


class WiredHost:
    """A wired correspondent node (file server, TCP sink, etc.).

    Packets a host sends are owned by the *wireless station* at the far
    end of the flow (``packet.station``); the AP queues them downlink.

    Two transmit paths exist:

    * :meth:`send` — per-packet: the caller built a packet, the host
      ships it over the backbone pipe (TCP data/ACKs, one-off traffic).
    * :meth:`udp_stream` — demand-driven: a CBR schedule is registered
      with the pipe's pump, which costs one kernel event per
      *observable* arrival — tail drops nothing can observe before the
      next event are accounted inline — and materializes packets only
      when the AP queue admits them (see
      ``repro.transport.udp.UdpDownlinkSource``).
    """

    def __init__(self, name: str, ap: AccessPoint) -> None:
        self.name = name
        self.ap = ap
        self.rx_bytes = 0

    def send(self, packet: Packet) -> None:
        self.ap.from_wire(packet)

    def udp_stream(
        self,
        station: str,
        rate_mbps: float,
        payload_bytes: int = 1472,
        *,
        on_receive: Optional[Callable[[Packet], None]] = None,
        start_us: float = 0.0,
        stop_us: Optional[float] = None,
        jitter_fraction: float = 0.05,
        name: Optional[str] = None,
    ) -> UdpDownlinkSource:
        """Open a demand-driven CBR stream toward ``station``."""
        return UdpDownlinkSource(
            self.ap.sim,
            name if name is not None else f"{self.name}/{station}",
            self.ap,
            station,
            rate_mbps,
            payload_bytes,
            on_receive=on_receive,
            start_us=start_us,
            stop_us=stop_us,
            jitter_fraction=jitter_fraction,
        )
