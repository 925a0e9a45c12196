"""Station lifecycle: disassociation through MAC, scheduler and TBR.

The fairness claim is about *currently associated* stations, so a true
leave must release everything the association held: the per-station
queue (packets back to the pool), the TBR token bucket and its rate
(back to the active stations, not parked at ``min_rate``), the MAC's
pending events, and the channel subscriptions.  These tests fail
tier-1 if a disassociated station retains tokens, rate, queue backlog
or channel subscriptions — plus the lifecycle edges: leave while a
frame is mid-flight, leave with a backlog, rejoin under TBR with
exactly one fresh ``T_init``, and double-disassociate as a no-op.
"""

import pytest

from repro.core.tbr import TbrConfig, TbrScheduler
from repro.node.cell import Cell
from repro.queueing.drr import DrrScheduler
from repro.queueing.fifo import ApFifoScheduler
from repro.queueing.round_robin import RoundRobinScheduler
from repro.sim import Simulator, us_from_s
from repro.transport.packet import Packet


def _pkt(station: str, size: int = 1500) -> Packet:
    return Packet(size, station, to_station=True)


# ----------------------------------------------------------------------
# scheduler-level lifecycle
# ----------------------------------------------------------------------
def test_double_disassociate_is_a_noop():
    sched = RoundRobinScheduler()
    sched.associate("a")
    sched.associate("b")
    assert sched.disassociate("a") == 0
    assert sched.stations() == ["b"]
    assert sched.disassociate("a") == 0  # second time: nothing to do
    assert sched.disassociate("ghost") == 0  # never associated: nothing
    assert sched.stations() == ["b"]


def test_disassociate_refuses_late_arrivals_until_reassociation():
    sched = RoundRobinScheduler()
    sched.associate("a")
    sched.disassociate("a")
    # A late wired-pipe packet must not resurrect the association.
    assert sched.enqueue(_pkt("a")) is False
    assert not sched.is_associated("a")
    assert sched.admits("a") is False
    sched.drop_arrival("a")  # the demand path's follow-up call is safe
    assert sched.refused_departed == 2
    assert sched.backlog("a") == 0
    # ...but a brand-new station still lazily associates,
    assert sched.enqueue(_pkt("fresh")) is True
    # and an explicit re-association reopens the door.
    sched.associate("a")
    assert sched.enqueue(_pkt("a")) is True


def test_disassociate_redivides_buffer_and_keeps_rr_order():
    sched = RoundRobinScheduler(total_capacity=90)
    for name in ("a", "b", "c"):
        sched.associate(name)
    assert sched.queues["a"].capacity == 30
    sched.enqueue(_pkt("b"))
    sched.enqueue(_pkt("c"))
    sched.disassociate("a")
    # Remaining stations split the freed buffer and keep their packets.
    assert sched.stations() == ["b", "c"]
    assert all(q.capacity == 45 for q in sched.queues.values())
    assert sched.dequeue().station == "b"
    assert sched.dequeue().station == "c"


def test_disassociate_keeps_drop_counter_monotonic():
    sched = RoundRobinScheduler(per_station_capacity=1)
    sched.associate("a")
    sched.enqueue(_pkt("a"))
    assert sched.enqueue(_pkt("a")) is False  # tail drop
    assert sched.dropped() == 1
    sched.disassociate("a")
    assert sched.dropped() == 1  # departed queue's drops still counted


def test_fifo_disassociate_purges_shared_fifo():
    sched = ApFifoScheduler()
    sched.enqueue(_pkt("a"))
    sched.enqueue(_pkt("b"))
    sched.enqueue(_pkt("a"))
    assert sched.disassociate("a") == 2
    assert (sched.backlog("a"), sched.backlog("b")) == (0, 1)
    assert sched.dequeue().station == "b"
    assert sched.enqueue(_pkt("a")) is False  # departed: refused
    assert sched.refused_departed == 1


def test_drr_disassociate_drops_deficit_state():
    sched = DrrScheduler()
    sched.associate("a")
    sched.associate("b")
    sched.deficit["a"] = 700.0
    sched.disassociate("a")
    assert "a" not in sched.deficit
    sched.associate("a")
    assert sched.deficit["a"] == 0.0  # fresh, not the stale 700


def test_drr_mid_visit_departure_grants_successor_its_quantum():
    sched = DrrScheduler(quantum_bytes=1500)
    sched.associate("a")
    sched.associate("b")
    sched.enqueue(_pkt("a", size=1500))
    sched.enqueue(_pkt("a", size=1500))
    sched.enqueue(_pkt("b", size=1500))
    # Serve one packet of a's visit: the visit grant is spent.
    assert sched.dequeue().station == "a"
    sched.disassociate("a")
    # b starts a *fresh* visit: it must receive its own quantum, not
    # inherit a's half-spent visit (which would pass it over).
    assert sched.dequeue().station == "b"


# ----------------------------------------------------------------------
# TBR: tokens and rate must be released, and T_init granted once
# ----------------------------------------------------------------------
def test_tbr_disassociate_returns_rate_to_active_pool():
    sim = Simulator(seed=1)
    sched = TbrScheduler(sim, TbrConfig(adjust_interval_us=0))
    for name in ("a", "b", "c", "d"):
        sched.associate(name)
    # Skew the rates the way ADJUSTRATEEVENT would (sum stays 1.0).
    sched.buckets["a"].rate = 0.40
    for name in ("b", "c", "d"):
        sched.buckets[name].rate = 0.20
    sched.disassociate("a")
    # The freed 0.40 is redistributed: active rates sum back to ~1.0,
    # preserving the learned ratios (equal here), instead of stranding
    # the departed station's share at min_rate forever.
    remaining = [sched.token_rate(n) for n in ("b", "c", "d")]
    assert sum(remaining) == pytest.approx(1.0)
    assert remaining == pytest.approx([1.0 / 3.0] * 3)
    assert "a" not in sched.buckets
    assert sched.token_rate("a") == 0.0
    assert sched.tokens_us("a") == 0.0


def test_tbr_rates_stay_normalized_after_leave_in_live_cell():
    cell = Cell(seed=3, scheduler="tbr")
    stations = [cell.add_station(f"n{i}", rate_mbps=11.0) for i in range(4)]
    for station in stations:
        cell.udp_flow(station, direction="down", rate_mbps=4.0)
    cell.sim.schedule(
        us_from_s(1.2), lambda: cell.remove_station("n0")
    )
    cell.run(seconds=3.0)  # spans several ADJUSTRATEEVENTs post-leave
    sched = cell.scheduler
    active = [sched.token_rate(f"n{i}") for i in range(1, 4)]
    assert sum(active) == pytest.approx(1.0, abs=1e-9)
    assert sched.token_rate("n0") == 0.0


def test_tbr_rejoin_grants_initial_tokens_exactly_once():
    sim = Simulator(seed=1)
    config = TbrConfig(adjust_interval_us=0)
    sched = TbrScheduler(sim, config)
    sched.associate("a")
    sched.associate("b")
    sched.buckets["a"].charge(35_000.0)  # deep in debt
    sched.disassociate("a")
    sched.associate("a")  # rejoin: fresh bucket, fresh T_init
    assert sched.tokens_us("a") == config.initial_tokens_us
    # Re-associating while present must NOT re-grant (idempotent).
    sched.buckets["a"].charge(5_000.0)
    sched.associate("a")
    assert sched.tokens_us("a") == config.initial_tokens_us - 5_000.0


def test_tbr_ignores_uplink_from_departed_station():
    sim = Simulator(seed=1)
    sched = TbrScheduler(sim, TbrConfig(adjust_interval_us=0))
    sched.associate("a")
    sched.associate("b")
    sched.disassociate("a")
    # An uplink frame already in the air when the station left must not
    # resurrect a bucket (or steal rate from the survivors).
    sched.on_uplink_complete("a", 2_000.0, payload_bytes=1500)
    assert "a" not in sched.buckets
    assert sched.token_rate("b") == pytest.approx(1.0)


# ----------------------------------------------------------------------
# cell-level teardown: MAC, channel subscriptions, packet pool
# ----------------------------------------------------------------------
def test_disassociated_station_retains_nothing():
    cell = Cell(seed=2, scheduler="tbr")
    n1 = cell.add_station("n1", rate_mbps=11.0)
    cell.add_station("n2", rate_mbps=11.0)
    cell.udp_flow(n1, direction="down", rate_mbps=8.0)
    cell.run(seconds=0.5)
    mac = n1.mac
    cell.remove_station("n1")
    # No station object, no queue backlog, no tokens, no rate...
    assert "n1" not in cell.stations
    assert not cell.scheduler.is_associated("n1")
    assert cell.scheduler.backlog("n1") == 0
    assert cell.scheduler.tokens_us("n1") == 0.0
    assert cell.scheduler.token_rate("n1") == 0.0
    # ...and no channel subscriptions of any kind.
    assert not cell.channel.is_attached(mac)
    assert mac not in cell.channel.listeners
    assert all(lis.address != "n1" for lis in cell.channel.listeners)
    # The AP's pinned downlink rate entry is dropped too.
    assert "n1" not in cell.ap.rate_controller.table
    # Double remove is a no-op.
    cell.remove_station("n1")
    assert "n2" in cell.stations


def test_leave_with_nonempty_queue_flushes_packets_to_pool():
    # Saturate one downlink queue, then disassociate: every packet the
    # queue held must return to the AP packet pool (no leak).
    cell = Cell(seed=5, scheduler="rr")
    n1 = cell.add_station("n1", rate_mbps=1.0)
    cell.add_station("n2", rate_mbps=11.0)
    cell.udp_flow(n1, direction="down", rate_mbps=8.0)
    cell.run(seconds=0.5)
    pool = cell.ap.packet_pool
    backlog = cell.scheduler.backlog("n1")
    assert backlog > 0  # 8 Mbps offered at a 1 Mbps PHY: queue is full
    recycled_before = pool.recycled
    cell.remove_station("n1")
    assert cell.scheduler.backlog("n1") == 0
    assert cell.scheduler.flushed_on_disassociate == backlog
    assert pool.recycled == recycled_before + backlog
    # Let the simulation keep running: no crash, no further deliveries.
    delivered = cell.flows[0].stats.bytes_delivered
    cell.run(seconds=0.3)
    assert cell.flows[0].stats.bytes_delivered == delivered
    # Every pooled packet ever handed out has been consumed again.
    assert pool.recycled == pool.allocated + pool.reused


def test_leave_while_frame_mid_flight_at_the_mac():
    # Remove the station while the AP MAC holds a frame for it: the
    # exchange plays out against a vanished receiver (retries, then
    # drop), the packet returns to the pool, and nothing crashes.
    cell = Cell(seed=7, scheduler="rr")
    n1 = cell.add_station("n1", rate_mbps=11.0)
    cell.add_station("n2", rate_mbps=11.0)
    cell.udp_flow(n1, direction="down", rate_mbps=10.0)

    observed = {}

    def remove_mid_flight() -> None:
        # Saturated downlink: the AP has a frame for n1 loaded now.
        observed["loaded"] = cell.ap.mac.busy_with_frame
        cell.remove_station("n1")

    cell.sim.schedule(us_from_s(0.35), remove_mid_flight)
    cell.run(seconds=0.8)
    assert observed["loaded"] is True
    assert cell.ap.mac.tx_dropped >= 1  # the orphaned frame gave up
    pool = cell.ap.packet_pool
    assert pool.recycled == pool.allocated + pool.reused  # no leak
    assert not cell.scheduler.is_associated("n1")
    assert all(lis.address != "n1" for lis in cell.channel.listeners)


def test_station_shutdown_cancels_its_pending_mac_events():
    # A station mid-backoff (or awaiting an ACK) that leaves must not
    # fire MAC callbacks afterwards.
    cell = Cell(seed=11, scheduler="rr")
    n1 = cell.add_station("n1", rate_mbps=11.0)
    cell.add_station("n2", rate_mbps=11.0)
    cell.udp_flow(n1, direction="up", rate_mbps=6.0)
    cell.run(seconds=0.2)
    flow = cell.flows[0]
    flow.sender.stop()
    tx_attempts = n1.mac.tx_attempts
    cell.remove_station("n1")
    cell.run(seconds=0.3)
    assert n1.mac.tx_attempts == tx_attempts  # silent after shutdown
    assert len(n1.queue) == 0


# ----------------------------------------------------------------------
# empty measurement windows
# ----------------------------------------------------------------------
def test_zero_length_measurement_window_reports_zeros():
    cell = Cell(seed=1, scheduler="rr")
    n1 = cell.add_station("n1", rate_mbps=11.0)
    cell.udp_flow(n1, direction="down", rate_mbps=4.0)
    # run() has not advanced past warm-up: the window is empty.
    assert cell.measured_us == 0.0
    assert cell.throughputs_mbps() == {"n1/udp-down": 0.0}
    assert cell.station_throughputs_mbps() == {"n1": 0.0}
    assert sum(cell.throughputs_mbps().values()) == 0.0
    assert cell.occupancy_fractions() == {"n1": 0.0}
    assert cell.occupancy_shares() == {"n1": 0.0}


def test_reset_measurements_reopens_an_empty_window():
    cell = Cell(seed=1, scheduler="rr")
    n1 = cell.add_station("n1", rate_mbps=11.0)
    cell.udp_flow(n1, direction="down", rate_mbps=4.0)
    cell.run(seconds=0.3)
    assert sum(cell.throughputs_mbps().values()) > 0.0
    cell.reset_measurements()
    # Immediately after the reset the window is empty again: still 0.0
    # everywhere, never a ZeroDivisionError.
    assert cell.measured_us == 0.0
    assert sum(cell.throughputs_mbps().values()) == 0.0
    assert cell.occupancy_fractions() == {"n1": 0.0}
    assert cell.occupancy_shares() == {"n1": 0.0}
