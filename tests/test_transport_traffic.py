"""The demand-driven traffic engine: exactness, edge cases, pooling.

The engine's contract is that fusing the per-packet (source timer,
wire delivery) event pair into one self-rescheduling delivery changes
*nothing observable*: RNG draw order, every delivery timestamp (bit for
bit, including serialization contention on the shared downlink wire),
drop accounting and sink-side statistics all match the two-event path.
The parity tests here rebuild the pre-engine arrangement by hand —
``UdpSender`` + per-packet ``Packet`` + ``WiredHost.send`` — and demand
exact equality against ``Cell.udp_flow``'s fused path.
"""

import random

import pytest

from repro.node.cell import Cell
from repro.node.wired_host import WiredHost
from repro.queueing.fifo import ApFifoScheduler
from repro.queueing.round_robin import RoundRobinScheduler
from repro.sim import Simulator
from repro.transport.packet import Packet, PacketPool
from repro.transport.stats import FlowStats
from repro.transport.udp import UdpSender, UdpSink
from repro.transport.wired import Pacing, WiredLink


# ----------------------------------------------------------------------
# legacy replica: the pre-engine two-event downlink path
# ----------------------------------------------------------------------
def legacy_udp_down(cell, station, rate_mbps, payload_bytes=1472):
    """Wire a downlink UDP flow exactly as Cell.udp_flow used to:
    timer-driven sender, fresh Packet per fire, host.send per packet.
    Uses the same flow/RNG stream names as the fused path."""
    name = f"{station.address}/udp-down"
    host = WiredHost(f"host-{name}", cell.ap)
    stats = FlowStats(cell.sim, name)
    sink = UdpSink(stats)
    sta_addr = station.address
    sim = cell.sim

    def on_rx(p):
        sink.on_datagram(p.payload, p.size_bytes)

    def tx(size_bytes, datagram):
        pkt = Packet(
            size_bytes,
            sta_addr,
            to_station=True,
            payload=datagram,
            on_receive=on_rx,
            created_us=sim.now,
        )
        host.send(pkt)

    sender = UdpSender(sim, f"{name}-snd", tx, rate_mbps, payload_bytes)
    return sender, sink, stats


def build_cells(scheduler="tbr", stations=3, rate_mbps=4.0, seed=7):
    """Two identical cells; one will carry fused flows, one legacy."""
    cells = []
    for _ in range(2):
        cell = Cell(seed=seed, scheduler=scheduler)
        for i in range(stations):
            cell.add_station(f"n{i + 1}", rate_mbps=[1.0, 5.5, 11.0][i % 3])
        cells.append(cell)
    return cells


@pytest.mark.parametrize("scheduler", ["fifo", "tbr"])
def test_fused_matches_legacy_two_event_path_exactly(scheduler):
    """Saturating downlink UDP: every delivery timestamp and every drop
    must match the two-event path bit for bit — including serialization
    contention between the three flows on the shared 100 Mbps wire."""
    fused_cell, legacy_cell = build_cells(scheduler=scheduler)

    fused_flows = [
        fused_cell.udp_flow(s, direction="down", rate_mbps=4.0)
        for s in fused_cell.stations.values()
    ]
    legacy_flows = [
        legacy_udp_down(legacy_cell, s, rate_mbps=4.0)
        for s in legacy_cell.stations.values()
    ]

    fused_cell.run(seconds=2.0)
    legacy_cell.run(seconds=2.0)

    for flow, (sender, sink, stats) in zip(fused_flows, legacy_flows):
        # Delivery timestamps enter the delay samples; exact equality
        # means both the fire times and the wire transit matched.
        assert flow.stats.delays_us == stats.delays_us
        assert flow.stats.bytes_delivered == stats.bytes_delivered
        assert flow.receiver.received == sink.received
        assert flow.receiver.reordered == sink.reordered == 0
        # The pump's speculative fold may run one packet ahead.
        assert abs(flow.sender.sent - sender.sent) <= 1
    assert fused_cell.scheduler.dropped() == legacy_cell.scheduler.dropped()
    assert (
        fused_cell.ap.downlink_packets == legacy_cell.ap.downlink_packets
    )
    assert fused_cell.occupancy_fractions() == legacy_cell.occupancy_fractions()
    # The whole point: strictly fewer kernel events for the same run.
    assert fused_cell.sim.events_executed < legacy_cell.sim.events_executed


def test_fused_matches_legacy_with_competing_tcp_on_same_wire():
    """A TCP flow shares the downlink wire with fused UDP flows: its
    plain sends interleave with the pump's speculative folds, forcing
    unwinds.  Results must still match the two-event path exactly."""
    fused_cell, legacy_cell = build_cells(scheduler="fifo", stations=3)

    f_tcp = fused_cell.tcp_flow(fused_cell.stations["n1"], direction="down")
    l_tcp = legacy_cell.tcp_flow(legacy_cell.stations["n1"], direction="down")
    fused_flows = [
        fused_cell.udp_flow(fused_cell.stations[n], direction="down", rate_mbps=3.0)
        for n in ("n2", "n3")
    ]
    legacy_flows = [
        legacy_udp_down(legacy_cell, legacy_cell.stations[n], rate_mbps=3.0)
        for n in ("n2", "n3")
    ]

    fused_cell.run(seconds=2.0)
    legacy_cell.run(seconds=2.0)

    assert f_tcp.stats.delays_us == l_tcp.stats.delays_us
    assert f_tcp.stats.bytes_delivered == l_tcp.stats.bytes_delivered
    for flow, (sender, sink, stats) in zip(fused_flows, legacy_flows):
        assert flow.stats.delays_us == stats.delays_us
        assert flow.receiver.received == sink.received
    assert fused_cell.scheduler.dropped() == legacy_cell.scheduler.dropped()


def test_jitter_zero_is_deterministic_and_matches_legacy():
    """jitter_fraction=0: pure CBR (only the initial phase is drawn).
    Two fused runs must be identical, and fused must match legacy."""
    outcomes = []
    for engine in ("fused", "fused", "legacy"):
        cell = Cell(seed=3, scheduler="rr")
        station = cell.add_station("n1", rate_mbps=11.0)
        if engine == "fused":
            host = WiredHost("host-j0", cell.ap)
            stats = FlowStats(cell.sim, "j0")
            sink = UdpSink(stats)
            source = host.udp_stream(
                "n1",
                12.0,
                on_receive=lambda p: sink.on_datagram(p.payload, p.size_bytes),
                jitter_fraction=0.0,
                name="n1/udp-down-snd",
            )
            sender = source
        else:
            sender, sink, stats = legacy_udp_down(
                cell, station, rate_mbps=12.0
            )
            sender.jitter_fraction = 0.0
        cell.run(seconds=1.0)
        outcomes.append((tuple(stats.delays_us), sink.received))
    assert outcomes[0] == outcomes[1]
    # Legacy used the same stream name but drew through a sender created
    # with jitter; align by name: the initial phase draw is the only
    # draw either engine makes at jitter 0, so results must match.
    assert outcomes[0] == outcomes[2]


def test_stop_us_landing_exactly_on_a_fire_time():
    """A fire scheduled exactly at stop_us must not send (legacy checks
    ``now >= stop_us``), in both engines."""
    # Replay the stream to find the first fire time.
    interval = (100 + UdpSender.HEADER_BYTES) * 8.0 / 1.0
    rng = random.Random("5/udp/edge")
    first_fire = rng.uniform(0.0, interval)

    # Legacy: timer fires at stop_us, sends nothing, stops.
    sim = Simulator(seed=5)
    sent_sizes = []
    sender = UdpSender(
        sim, "edge", lambda n, d: sent_sizes.append(n), 1.0, 100,
        stop_us=first_fire,
    )
    sim.run(until=10 * interval)
    assert sender.sent == 0 and sent_sizes == []

    # Fused: the arrival is disowned before it ever folds.
    cell = Cell(seed=5)
    cell.add_station("n1")
    host = WiredHost("h", cell.ap)
    source = host.udp_stream(
        "n1", 1.0, 100, stop_us=first_fire, name="edge"
    )
    assert source.fire_us >= source.stop_us  # no arrival pending
    cell.sim.run(until=10 * interval)
    assert source.sent == 0
    assert cell.ap.downlink_packets == 0


def test_dynamic_stop_unwinds_speculative_fold():
    """stop() mid-run cancels arrivals with fire >= now even if the pump
    already folded one speculatively; sent/seq counters roll back."""
    cell = Cell(seed=11)
    cell.add_station("n1")
    host = WiredHost("h", cell.ap)
    delivered = []
    source = host.udp_stream(
        "n1", 2.0,
        on_receive=lambda p: delivered.append(p.payload.seq),
        name="stopper",
    )
    link = cell.ap.downlink_wire
    # Run long enough for a few deliveries, then stop between fires.
    cell.sim.run(until=source.interval_us * 4.1)
    assert len(link._folded) >= 1  # a speculative fold is outstanding
    sent_before = source.sent
    source.stop()
    assert source.sent == sent_before - 1  # speculative arrival undone
    assert source.fire_us >= source.stop_us  # no arrival pending
    pending_deliveries = cell.sim.pending_count()
    cell.sim.run(until=cell.sim.now + 10 * source.interval_us)
    # No new arrivals after the stop: only in-flight work drained.
    assert source.sent == sent_before - 1
    del pending_deliveries


def test_zero_rate_link_fifo_ordering_across_sources_and_sends():
    """rate=0 (pure delay): deliveries come out in fire order, demand
    arrivals and plain sends interleaved, ties broken by registration
    order."""
    sim = Simulator(seed=0)
    link = WiredLink(sim, delay_us=500.0, rate_mbps=0.0)
    order = []

    class Scripted(Pacing):
        """Minimal demand source: ``count`` arrivals, ``interval_us``
        apart from ``first_us`` on."""

        def __init__(self, label, first_us, interval_us, count):
            super().__init__(
                first_us, interval_us, 1000,
                stop_us=first_us + (count - 0.5) * interval_us,
            )
            self.label = label

        def refuse(self):
            return False  # every arrival is admitted

        def deliver(self, seq, fire_us):
            order.append((self.label, fire_us))

    a = Scripted("a", 100.0, 200.0, 3)  # 100, 300, 500
    b = Scripted("b", 100.0, 150.0, 2)  # 100, 250
    link.attach_source(a)
    link.attach_source(b)

    class Pkt:
        size_bytes = 400

    sim.schedule(200.0, lambda: link.send(Pkt(), lambda p: order.append(("p", 200.0))))
    sim.run(until=2000.0)
    # Fire order: a@100, b@100 (tie -> registration order), p@200,
    # b@250, a@300, a@500; pure delay preserves it at +500us each.
    assert order == [
        ("a", 100.0), ("b", 100.0), ("p", 200.0),
        ("b", 250.0), ("a", 300.0), ("a", 500.0),
    ]
    assert link.delivered == 6


def test_plain_send_unwind_restores_serialization_state():
    """A plain send arriving before a speculatively-folded arrival must
    serialize first — byte-identical to the two-event ordering."""
    sim = Simulator(seed=0)
    # 1000 B at 8 Mbps = 1000 us serialization; generous delay.
    link = WiredLink(sim, delay_us=100.0, rate_mbps=8.0)
    deliveries = []

    class One(Pacing):
        """A single arrival, at 500 us."""

        def __init__(self):
            super().__init__(500.0, 1000.0, 1000, stop_us=501.0)

        def refuse(self):
            return False  # the arrival is admitted

        def deliver(self, seq, fire_us):
            deliveries.append(("demand", sim.now))

    link.attach_source(One())
    # Speculative fold happened at attach: busy_until covers [500, 1500].
    assert len(link._folded) == 1

    class Pkt:
        size_bytes = 1000

    # Plain send at t=200 < 500: must grab the pipe first.
    sim.schedule(
        200.0, lambda: link.send(Pkt(), lambda p: deliveries.append(("plain", sim.now)))
    )
    sim.run(until=10_000.0)
    # Two-event ordering: plain serializes 200->1200 (+100 delay =>
    # 1300); demand arrival then serializes 1200->2200 (+100 => 2300).
    assert deliveries == [("plain", 1300.0), ("demand", 2300.0)]


def test_busy_until_stale_backlog_without_reset_regression():
    """Reusing a link for a new epoch without reset() leaves ghost
    serialization backlog that delays the new epoch's first packet;
    reset() clears it.  (The audited `_busy_until` reuse bug.)"""
    times = []

    def run_epoch2(reset):
        sim = Simulator(seed=0)
        link = WiredLink(sim, delay_us=0.0, rate_mbps=8.0)

        class Pkt:
            size_bytes = 1000  # 1000 us serialization each

        got = []
        # Epoch 1: burst of 5 packets at t=0 books the pipe until 5000.
        for _ in range(5):
            link.send(Pkt(), lambda p: None)
        sim.run(until=1000.0)  # epoch ends mid-backlog
        if reset:
            link.reset()
            assert link.delivered == 0
        link.send(Pkt(), lambda p: got.append(sim.now))
        sim.run(until=20_000.0)
        return got[0]

    times.append(run_epoch2(reset=False))
    times.append(run_epoch2(reset=True))
    assert times[0] == 6000.0  # ghost backlog from epoch 1
    assert times[1] == 2000.0  # fresh pipe: 1000 (now) + 1000 serialize


@pytest.mark.parametrize("rate_mbps", [8.0, 0.0], ids=["serialized", "pure-delay"])
def test_reset_mid_sim_with_backlogged_demand_source(rate_mbps):
    """reset() while an attached source has an overdue arrival (its
    fire time already passed, backlog built in the old epoch) must
    rebase that arrival onto the fresh pipe, not schedule its delivery
    in the past."""
    sim = Simulator(seed=0)
    link = WiredLink(sim, delay_us=0.0, rate_mbps=rate_mbps)
    delivered = []

    class Fast(Pacing):
        # Fires every 200 us from 100 us on; at 8 Mbps each 1000 B
        # packet serializes for 1000 us, so the fold frontier falls
        # behind the clock.
        def __init__(self):
            super().__init__(100.0, 200.0, 1000)

        def deliver(self, seq, fire_us):
            delivered.append(sim.now)

        def refuse(self):
            return False  # every arrival is admitted: nothing drains

    link.attach_source(Fast())
    sim.run(until=2150.0)
    link.reset()  # new epoch mid-backlog
    assert link.delivered == 0
    before = sim.now
    sim.run(until=before + 5000.0)
    assert delivered  # the pump kept running
    assert all(t >= before for t in delivered[-3:] or delivered)


def test_udp_sender_stop_during_tx_callback_regression():
    """stop() called from inside the tx callback (a sink reacting to
    the datagram) must not leave a ghost timer re-armed by _fire."""
    sim = Simulator(seed=1)
    box = {}

    def tx(size, datagram):
        box["sender"].stop()

    box["sender"] = UdpSender(sim, "s", tx, 1.0, 100)
    sim.run(until=10_000_000.0)
    assert box["sender"].sent == 1
    assert box["sender"]._timer is None
    # One initial timer event only — no ghost firing after stop().
    assert sim.events_executed == 1


# ----------------------------------------------------------------------
# drop-before-alloc and the packet freelist
# ----------------------------------------------------------------------
def test_saturated_cell_drops_cost_no_allocations():
    """In a saturated cell, tail-dropped arrivals never materialize:
    pool allocations stay bounded by in-flight packets, far below the
    offered count."""
    cell = Cell(seed=2, scheduler="tbr")
    station = cell.add_station("n1", rate_mbps=1.0)
    flow = cell.udp_flow(station, direction="down", rate_mbps=8.0)
    cell.run(seconds=2.0)
    pool = cell.ap.packet_pool
    offered = flow.sender.sent
    dropped = cell.scheduler.dropped()
    assert dropped > offered / 2  # genuinely saturated
    admitted = offered - dropped
    # Every admitted packet came from the pool machinery...
    assert pool.allocated + pool.reused >= admitted - 1
    # ...but the allocator was only touched for the small working set.
    assert pool.allocated < admitted / 2
    assert pool.reused > 0 and pool.recycled > 0
    # Disassociation flushes the queued backlog back to the pool: after
    # it, every packet ever handed out has been returned — no leak —
    # except the one frame the AP MAC may still hold mid-exchange.
    backlog = cell.scheduler.backlog("n1")
    assert backlog > 0
    cell.remove_station("n1")
    in_flight = 1 if cell.ap.mac.busy_with_frame else 0
    assert pool.recycled == pool.allocated + pool.reused - in_flight


def test_pool_reuse_does_not_leak_payload_state_across_flows():
    """A packet recycled from flow A and reused by flow B must carry
    B's payload, size, station and callback — nothing of A's."""
    cell = Cell(seed=4, scheduler="rr")
    sta_a = cell.add_station("a", rate_mbps=11.0, queue_capacity=2)
    sta_b = cell.add_station("b", rate_mbps=11.0, queue_capacity=2)
    got = {"a": [], "b": []}
    host = WiredHost("h", cell.ap)
    host.udp_stream(
        "a", 6.0, 700,
        on_receive=lambda p: got["a"].append(
            (p.station, p.size_bytes, p.payload.seq)
        ),
        name="flow-a",
    )
    host.udp_stream(
        "b", 6.0, 1400,
        on_receive=lambda p: got["b"].append(
            (p.station, p.size_bytes, p.payload.seq)
        ),
        name="flow-b",
    )
    cell.run(seconds=1.0)
    pool = cell.ap.packet_pool
    assert pool.reused > 0  # recycling actually happened
    for label, size in (("a", 700), ("b", 1400)):
        seqs = [seq for _, _, seq in got[label]]
        assert all(sta == label for sta, _, _ in got[label])
        assert all(sz == size + 28 for _, sz, _ in got[label])
        assert seqs == sorted(seqs)  # per-flow seqs monotone: no mixing
        assert len(set(seqs)) == len(seqs)


def test_packet_pool_double_release_is_safe():
    pool = PacketPool(max_size=4)
    packet = Packet(100, "x", to_station=True)
    packet._pool = pool
    packet.release()
    packet.release()  # second release must be a no-op
    assert len(pool) == 1
    assert pool.recycled == 1
    again = pool.get()
    assert again is packet
    assert pool.get() is None  # not handed out twice


def test_pool_bounds_and_counters():
    pool = PacketPool(max_size=1)
    p1 = Packet(10, "s", to_station=True)
    p2 = Packet(10, "s", to_station=True)
    for p in (p1, p2):
        p._pool = pool
        p.release()
    assert pool.recycled == 2
    assert len(pool) == 1  # bounded


# ----------------------------------------------------------------------
# scheduler admission API
# ----------------------------------------------------------------------
def test_refuse_mirrors_enqueue_counters():
    sched = RoundRobinScheduler(total_capacity=4)
    sched.associate("n1")
    sched.associate("n2")  # 2 packets per station
    assert not sched.refuse("n1")
    for _ in range(2):
        assert sched.enqueue(Packet(100, "n1", to_station=True))
    assert sched.refuse("n1")
    assert sched.queues["n1"].dropped == 1
    # Parity with push-path drops:
    assert not sched.enqueue(Packet(100, "n1", to_station=True))
    assert sched.queues["n1"].dropped == 2
    assert not sched.refuse("n2")
    # Unknown stations are not refused, and are left for enqueue to
    # associate.
    assert not sched.refuse("n3")
    assert "n3" not in sched.queues
    assert sched.enqueue(Packet(100, "n3", to_station=True))
    assert "n3" in sched.queues


def test_fifo_scheduler_admits_shared_capacity():
    sched = ApFifoScheduler(total_capacity=2)
    assert not sched.refuse("n1")
    sched.enqueue(Packet(10, "n1", to_station=True))
    sched.enqueue(Packet(10, "n2", to_station=True))
    assert sched.refuse("n1")
    assert sched.dropped() == 1
