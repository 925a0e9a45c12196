"""A wireless client station."""

from __future__ import annotations

from typing import Callable, Optional

from repro.channel.medium import Channel
from repro.mac.dcf import DcfMac, MacConfig
from repro.mac.fifo import FifoTxScheduler
from repro.node.rate_control import FixedRate, RateController
from repro.phy.phy import PhyParams
from repro.sim import EventCategory, Simulator
from repro.transport.packet import Packet


class Station:
    """A client node: MAC + FIFO transmit queue + transport plumbing.

    The station sends everything to the AP (infrastructure mode).  Its
    uplink data rate comes from a :class:`RateController` (fixed by the
    controlled experiments, ARF in the rate-adaptation scenarios).

    The optional TBR *client agent* (paper Section 4.1) is a release
    gate on the transmit queue: when the AP piggybacks a defer hint on a
    downlink frame or ACK, the station withholds its own transmissions
    for the requested time.  It is disabled by default, matching the
    paper's evaluated configuration ("our current TBR implementation
    does not contain the client-side implementation").
    """

    TIME_STATE = dict(
        clocks=("_defer_until",), counters=("rx_bytes",), parts=("mac",)
    )

    def __init__(
        self,
        sim: Simulator,
        channel: Channel,
        address: str,
        phy: PhyParams,
        *,
        ap_address: str = "ap",
        rate_controller: Optional[RateController] = None,
        rate_mbps: float = 11.0,
        queue_capacity: int = 100,
        mac_config: Optional[MacConfig] = None,
        cooperate_with_tbr: bool = False,
    ) -> None:
        self.sim = sim
        self.address = address
        self.ap_address = ap_address
        self.rate_controller = (
            rate_controller if rate_controller is not None else FixedRate(rate_mbps)
        )
        self.mac = DcfMac(
            sim,
            channel,
            address,
            phy,
            config=mac_config,
            rate_provider=self.rate_controller.rate_for,
        )
        self.queue = FifoTxScheduler(capacity=queue_capacity)
        self.mac.attach_scheduler(self.queue)
        self.mac.rx_handler = self._on_mac_rx
        self.mac.add_completion_listener(self._on_mac_complete)
        self.mac.attempt_listener = self._on_attempt

        self.cooperate_with_tbr = cooperate_with_tbr
        self._defer_until = 0.0
        if cooperate_with_tbr:
            self.queue.release_gate = self._may_transmit
            self.mac.defer_hint_handler = self._on_defer_hint

        #: extra observers of uplink exchange completions
        #: (callable(report)); the Cell wires usage monitors here.
        self.exchange_observers = []
        self.rx_bytes = 0
        self.tx_packets = 0

    # ------------------------------------------------------------------
    # transport-facing
    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Queue an uplink packet toward the AP."""
        packet.mac_dst = self.ap_address
        self.tx_packets += 1
        return self.queue.enqueue(packet)

    def shutdown(self) -> None:
        """Disassociate: silence the MAC and drop queued uplink traffic.

        The MAC cancels its pending events and detaches from the
        channel; packets still sitting in the transmit queue are
        discarded (a closed laptop lid takes its queue with it).
        Transport endpoints that keep offering traffic afterwards fill
        a dead queue — quiesce flows first for a clean teardown.
        """
        self.queue.queue.clear()
        self.queue.mac = None
        self.mac.shutdown()

    # ------------------------------------------------------------------
    # MAC callbacks
    # ------------------------------------------------------------------
    def _on_mac_rx(self, frame) -> None:
        packet = frame.packet
        if packet is None:
            return
        self.rx_bytes += packet.size_bytes
        packet.deliver()

    def _on_attempt(self, dst: str, success: bool) -> None:
        # One attempt at a time so rate control reacts before the retry.
        self.rate_controller.on_exchange(dst, success, 1)

    def _on_mac_complete(self, report) -> None:
        for observer in self.exchange_observers:
            observer(report)

    # ------------------------------------------------------------------
    # TBR client cooperation
    # ------------------------------------------------------------------
    def _on_defer_hint(self, defer_us: float) -> None:
        self._defer_until = max(self._defer_until, self.sim.now + defer_us)
        if defer_us > 0:
            self.sim.schedule(
                defer_us, self.queue.wake, category=EventCategory.TIMER
            )

    def _may_transmit(self) -> bool:
        return self.sim.now >= self._defer_until
