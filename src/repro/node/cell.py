"""`Cell` — a one-stop builder for single-cell WLAN scenarios.

Every experiment in the paper is "an AP, a few stations at various
rates, TCP or UDP flows up or down, with or without TBR".  ``Cell``
assembles the simulator, channel, AP (with the chosen queueing
discipline), stations, flows and measurement hooks, and exposes the
results the paper reports: per-flow throughput and per-station channel
occupancy.

Example::

    cell = Cell(seed=1, scheduler="tbr")
    n1 = cell.add_station("n1", rate_mbps=1.0)
    n2 = cell.add_station("n2", rate_mbps=11.0)
    f1 = cell.tcp_flow(n1, direction="up")
    f2 = cell.tcp_flow(n2, direction="up")
    cell.run(seconds=20, warmup_seconds=2)
    print(cell.throughputs_mbps())        # {'n1/tcp-up': ..., ...}
    print(cell.occupancy_fractions())     # {'n1': ~0.48, 'n2': ~0.48}
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.channel.medium import Channel
from repro.channel.usage import ChannelUsageMonitor
from repro.core.tbr import TbrConfig, TbrScheduler
from repro.node.access_point import AccessPoint
from repro.node.rate_control import FixedRate, RateController
from repro.node.station import Station
from repro.node.wired_host import WiredHost
from repro.phy.phy import DOT11B_LONG_PREAMBLE, PhyParams
from repro.queueing.base import ApScheduler
from repro.queueing.drr import DrrScheduler
from repro.queueing.fifo import ApFifoScheduler
from repro.queueing.round_robin import RoundRobinScheduler
from repro.sim import Simulator, us_from_s
from repro.transport.apps import BulkApp, PacedApp, TaskApp
from repro.transport.packet import Packet
from repro.transport.stats import FlowStats
from repro.transport.tcp import TcpParams, TcpReceiver, TcpSender
from repro.transport.udp import UdpSender, UdpSink


@dataclass
class FlowHandle:
    """Everything about one flow a test or experiment might poke."""

    TIME_STATE = dict(parts=("stats", "sender", "receiver"))

    name: str
    station: Station
    direction: str  # "up" | "down"
    kind: str  # "tcp" | "udp"
    stats: FlowStats
    sender: object
    receiver: object
    app: object = None

    def throughput_mbps(self, elapsed_us: Optional[float] = None) -> float:
        return self.stats.throughput_mbps(elapsed_us)


def _make_scheduler(
    sim: Simulator, spec: Union[str, ApScheduler], tbr_config: Optional[TbrConfig]
) -> ApScheduler:
    if isinstance(spec, ApScheduler):
        return spec
    if spec == "fifo":
        return ApFifoScheduler()
    if spec == "rr":
        return RoundRobinScheduler()
    if spec == "drr":
        return DrrScheduler()
    if spec == "tbr":
        return TbrScheduler(sim, tbr_config)
    raise ValueError(f"unknown scheduler {spec!r} (fifo/rr/drr/tbr)")


class Cell:
    """A single 802.11 cell with an AP, stations and flows."""

    #: The root ``repro.sim.steady``'s walker starts from.
    TIME_STATE = dict(
        parts=("channel", "usage", "ap", "stations", "flows"),
        phase={"_measure_start_us": "stays put: skipped time counts as measured"},
    )

    def __init__(
        self,
        seed: int = 0,
        *,
        phy: PhyParams = DOT11B_LONG_PREAMBLE,
        scheduler: Union[str, ApScheduler] = "fifo",
        tbr_config: Optional[TbrConfig] = None,
        loss_model=None,
        oracle_retry_accounting: bool = False,
        ap_rate_controller: Optional[RateController] = None,
        sim: Optional[Simulator] = None,
        ap_address: str = "ap",
    ) -> None:
        # A campus hands every cell the same kernel (``sim``); a lone
        # cell owns its own.  Either way all named RNG streams derive
        # from the seed, so a single shared-kernel cell is
        # byte-identical to a standalone one.
        self.sim = sim if sim is not None else Simulator(seed=seed)
        self.phy = phy
        self.channel = Channel(self.sim, loss_model)
        self.usage = ChannelUsageMonitor(self.sim)
        self.scheduler = _make_scheduler(self.sim, scheduler, tbr_config)
        self.ap = AccessPoint(
            self.sim,
            self.channel,
            self.scheduler,
            phy,
            address=ap_address,
            rate_controller=ap_rate_controller,
            oracle_retry_accounting=oracle_retry_accounting,
        )
        self.ap.mac.add_completion_listener(self._on_ap_exchange)
        if isinstance(self.scheduler, TbrScheduler) and self.scheduler.config.notify_clients:
            self.ap.mac.ack_decorator = self._decorate_ack
        self.stations: Dict[str, Station] = {}
        self.flows: List[FlowHandle] = []
        self._flow_seq = 0
        self._measure_start_us = 0.0

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def add_station(
        self,
        name: Optional[str] = None,
        *,
        rate_mbps: float = 11.0,
        downlink_rate_mbps: Optional[float] = None,
        rate_controller: Optional[RateController] = None,
        queue_capacity: int = 100,
        cooperate_with_tbr: bool = False,
        mac_config=None,
    ) -> Station:
        """Create a station; its uplink rate is ``rate_mbps`` and the
        AP's downlink rate toward it defaults to the same value."""
        if name is None:
            name = f"sta{len(self.stations)}"
        if name in self.stations:
            raise ValueError(f"duplicate station name {name!r}")
        station = Station(
            self.sim,
            self.channel,
            name,
            self.phy,
            ap_address=self.ap.address,
            rate_controller=rate_controller,
            rate_mbps=rate_mbps,
            queue_capacity=queue_capacity,
            cooperate_with_tbr=cooperate_with_tbr,
            mac_config=mac_config,
        )
        station.exchange_observers.append(self._on_station_exchange(station))
        self.stations[name] = station
        self.ap.associate(name)
        if rate_controller is None and downlink_rate_mbps is None:
            downlink_rate_mbps = rate_mbps
        if downlink_rate_mbps is not None:
            try:
                self.ap.set_downlink_rate(name, downlink_rate_mbps)
            except TypeError:
                pass  # AP uses its own adaptive controller
        return station

    def remove_station(self, name: str) -> None:
        """Tear a station down end to end (true disassociation).

        The inverse of :meth:`add_station`: the AP scheduler
        disassociates the station (flushing its queued downlink
        packets back to the packet pool; under TBR its token bucket is
        retired and its rate redistributed), the station's MAC cancels
        its pending events and detaches from the channel, and the AP's
        pinned downlink rate entry is dropped.  Flow handles already
        created for the station stay in :attr:`flows` (their delivered
        bytes are history) but stop accumulating.  Traffic sources are
        *not* stopped here — quiesce them first (the scenario builder
        does).  Unknown names are a no-op, so a double remove is safe.

        Re-adding the same name later is a fresh association: a new
        station object, a new queue, and (under TBR) a new initial
        token grant.
        """
        station = self.stations.pop(name, None)
        if station is None:
            return
        self.scheduler.disassociate(name)
        station.shutdown()
        if isinstance(self.ap.rate_controller, FixedRate):
            self.ap.rate_controller.table.pop(name, None)

    def crash_station(self, name: str) -> None:
        """The station dies *without* disassociating (ungraceful).

        Only the station's own side is torn down — its MAC stops
        answering and detaches, its queue empties — while every piece
        of AP-side state stays allocated: the downlink queue keeps
        admitting packets, the pinned downlink rate stays, and under
        TBR the token bucket keeps its rate (stranding the survivors'
        shares below ``1/n_active``).  Recovery is the inactivity
        reaper's job (see :meth:`enable_reaper`); without one the
        strand persists — which is exactly the regression the runtime
        sanitizer's live-share invariant catches.  Unknown names no-op.
        """
        station = self.stations.pop(name, None)
        if station is None:
            return
        station.shutdown()

    def enable_reaper(self, config=None, *, on_reap=None) -> None:
        """Arm the AP's dead-peer detection.

        ``config`` is a :class:`repro.node.access_point.ReaperConfig`
        (defaults apply when ``None``).  A reaped station goes through
        the same teardown as :meth:`remove_station` — scheduler
        disassociate (queue flushed, TBR bucket retired, survivors
        renormalized) and pinned-rate cleanup — except its own Station
        object, if it crashed, is already gone.  ``on_reap`` is called
        with the station name *after* the teardown (the scenario layer
        uses it to stop the dead station's remaining traffic sources).
        """
        from repro.node.access_point import ReaperConfig

        self._on_reap_hook = on_reap
        self.ap.enable_reaper(
            config if config is not None else ReaperConfig(), self._reap
        )

    def _reap(self, name: str) -> None:
        self._reap_teardown(name)
        hook = getattr(self, "_on_reap_hook", None)
        if hook is not None:
            hook(name)

    def _reap_teardown(self, name: str) -> None:
        if name in self.stations:
            # Still alive on our books (e.g. a live station behind a
            # hopeless link): full teardown, same as remove_station.
            self.remove_station(name)
            return
        # Crashed: the Station object is gone, but the scheduler and
        # rate table never heard — disassociate directly so the queue
        # flushes and TBR's survivors renormalize to 1/n_active.
        self.scheduler.disassociate(name)
        if isinstance(self.ap.rate_controller, FixedRate):
            self.ap.rate_controller.table.pop(name, None)

    # ------------------------------------------------------------------
    # usage accounting (true occupancy, both directions)
    # ------------------------------------------------------------------
    def _on_station_exchange(self, station: Station):
        def observer(report) -> None:
            if report.packet is None:
                return
            self.usage.record_exchange(
                station.address,
                report.airtime_us,
                attempts=report.attempts,
                success=report.success,
                payload_bytes=report.payload_bytes,
                rate_mbps=report.rate_mbps,
                direction="up",
            )

        return observer

    def _on_ap_exchange(self, report) -> None:
        packet = report.packet
        if packet is None:
            return
        self.usage.record_exchange(
            packet.station,
            report.airtime_us,
            attempts=report.attempts,
            success=report.success,
            payload_bytes=report.payload_bytes,
            rate_mbps=report.rate_mbps,
            direction="down",
        )

    def _decorate_ack(self, ack, data_frame) -> None:
        hint = self.scheduler.defer_hint_for(data_frame.src)
        if hint is not None:
            ack.defer_hint = hint

    # ------------------------------------------------------------------
    # flows
    # ------------------------------------------------------------------
    def _flow_name(self, station: Station, kind: str, direction: str) -> str:
        self._flow_seq += 1
        return f"{station.address}/{kind}-{direction}"

    def tcp_flow(
        self,
        station: Station,
        *,
        direction: str = "up",
        app: str = "bulk",
        task_bytes: Optional[int] = None,
        paced_mbps: Optional[float] = None,
        params: Optional[TcpParams] = None,
        name: Optional[str] = None,
    ) -> FlowHandle:
        """Create a TCP flow between ``station`` and a fresh wired host.

        ``direction="up"`` sends data station -> host (the host returns
        ACKs through the AP's downlink queue); ``"down"`` the reverse.
        ``app`` is ``"bulk"``, ``"task"`` (give ``task_bytes``) or
        ``"paced"`` (give ``paced_mbps``).
        """
        if direction not in ("up", "down"):
            raise ValueError("direction must be 'up' or 'down'")
        if name is None:
            name = self._flow_name(station, "tcp", direction)
        host = WiredHost(f"host-{name}", self.ap)
        stats = FlowStats(self.sim, name)

        sta_addr = station.address
        now = self.sim.now

        if direction == "up":
            data_via = station.send
            ack_via = host.send
            data_to_station = False
        else:
            data_via = host.send
            ack_via = station.send
            data_to_station = True

        # Receiver first so the sender's tx can reference its callbacks.
        receiver_box: dict = {}

        def tx_data(size_bytes: int, segment) -> None:
            pkt = Packet(
                size_bytes,
                sta_addr,
                to_station=data_to_station,
                payload=segment,
                on_receive=lambda p: receiver_box["rx"].on_segment(p.payload),
                created_us=self.sim.now,
            )
            data_via(pkt)

        sender = TcpSender(self.sim, f"{name}-snd", tx_data, params)

        def tx_ack(size_bytes: int, ack) -> None:
            pkt = Packet(
                size_bytes,
                sta_addr,
                to_station=not data_to_station,
                payload=ack,
                on_receive=lambda p: sender.on_ack(p.payload),
                created_us=self.sim.now,
            )
            ack_via(pkt)

        receiver = TcpReceiver(self.sim, f"{name}-rcv", tx_ack, params, stats)
        receiver_box["rx"] = receiver

        app_obj: object
        if app == "bulk":
            app_obj = BulkApp(sender)
        elif app == "task":
            if task_bytes is None:
                raise ValueError("task app needs task_bytes")
            app_obj = TaskApp(self.sim, sender, task_bytes, stats.mark_complete)
        elif app == "paced":
            if paced_mbps is None:
                raise ValueError("paced app needs paced_mbps")
            app_obj = PacedApp(self.sim, sender, paced_mbps)
        else:
            raise ValueError(f"unknown app {app!r}")

        handle = FlowHandle(
            name, station, direction, "tcp", stats, sender, receiver, app_obj
        )
        self.flows.append(handle)
        del now
        return handle

    def udp_flow(
        self,
        station: Station,
        *,
        direction: str = "down",
        rate_mbps: float = 12.0,
        payload_bytes: int = 1472,
        name: Optional[str] = None,
    ) -> FlowHandle:
        """Create a UDP flow (default: saturating downlink, as EXP-1)."""
        if direction not in ("up", "down"):
            raise ValueError("direction must be 'up' or 'down'")
        if name is None:
            name = self._flow_name(station, "udp", direction)
        host = WiredHost(f"host-{name}", self.ap)
        stats = FlowStats(self.sim, name)
        sink = UdpSink(stats)

        sta_addr = station.address

        def on_rx(p) -> None:
            sink.on_datagram(p.payload, p.size_bytes)

        sender: object
        if direction == "down":
            # Demand-driven engine: the wire's pump charges one kernel
            # event per *observable* arrival (unobservable tail drops
            # are drained inline), and tail drops at the AP queue never
            # materialize a packet at all.
            sender = host.udp_stream(
                sta_addr,
                rate_mbps,
                payload_bytes,
                on_receive=on_rx,
                name=f"{name}-snd",
            )
        else:
            sim = self.sim

            def tx(size_bytes: int, datagram) -> None:
                pkt = Packet(
                    size_bytes,
                    sta_addr,
                    to_station=False,
                    payload=datagram,
                    on_receive=on_rx,
                    created_us=sim.now,
                )
                station.send(pkt)

            sender = UdpSender(
                self.sim, f"{name}-snd", tx, rate_mbps, payload_bytes
            )
        handle = FlowHandle(name, station, direction, "udp", stats, sender, sink)
        self.flows.append(handle)
        return handle

    # ------------------------------------------------------------------
    # running and measuring
    # ------------------------------------------------------------------
    def run(self, seconds: float, *, warmup_seconds: float = 0.0) -> None:
        """Run ``warmup_seconds`` then measure for ``seconds``."""
        if warmup_seconds > 0:
            self.sim.run(until=self.sim.now + us_from_s(warmup_seconds))
            self.reset_measurements()
        self.sim.run(until=self.sim.now + us_from_s(seconds))

    def reset_measurements(self) -> None:
        """Zero throughput/occupancy accumulators (end of warm-up)."""
        self._measure_start_us = self.sim.now
        self.usage.reset()
        for flow in self.flows:
            flow.stats.reset()

    @property
    def measured_us(self) -> float:
        return self.sim.now - self._measure_start_us

    # Empty-window convention: before :meth:`run` has advanced past the
    # warm-up, ``measured_us`` is 0 and every per-window metric below
    # reports 0.0 — uniformly, never a ZeroDivisionError.  The explicit
    # guards keep the contract visible (and independent of how the
    # underlying monitors handle degenerate denominators).
    def throughputs_mbps(self) -> Dict[str, float]:
        """Per-flow goodput over the measurement window (0.0 each when
        the window is empty)."""
        if self.measured_us <= 0:
            return {f.name: 0.0 for f in self.flows}
        return {
            f.name: f.stats.throughput_mbps(self.measured_us) for f in self.flows
        }

    def station_throughputs_mbps(self) -> Dict[str, float]:
        """Goodput summed per station (0.0 each on an empty window)."""
        result: Dict[str, float] = {}
        measured = self.measured_us
        for flow in self.flows:
            key = flow.station.address
            gained = (
                flow.stats.throughput_mbps(measured) if measured > 0 else 0.0
            )
            result[key] = result.get(key, 0.0) + gained
        return result

    def _occupancy_keys(self) -> List[str]:
        """Stations an occupancy report must cover: the currently
        associated ones (insertion order) plus any departed station
        that still has attributed airtime in the window — a guest that
        transmitted and then truly left must not report 0.000."""
        keys = list(self.stations)
        present = set(keys)
        keys.extend(s for s in self.usage.stations() if s not in present)
        return keys

    def occupancy_fractions(self) -> Dict[str, float]:
        """Per-station channel occupancy as a fraction of elapsed time
        (0.0 each when the measurement window is empty)."""
        if self.measured_us <= 0:
            return {s: 0.0 for s in self._occupancy_keys()}
        return {
            s: self.usage.fraction_of_time(s, self.measured_us)
            for s in self._occupancy_keys()
        }

    def occupancy_shares(self) -> Dict[str, float]:
        """Per-station share of the total attributed channel time (0.0
        each when the measurement window is empty)."""
        if self.measured_us <= 0:
            return {s: 0.0 for s in self._occupancy_keys()}
        return {
            s: self.usage.fraction_of_busy(s) for s in self._occupancy_keys()
        }
