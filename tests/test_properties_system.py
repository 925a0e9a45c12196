"""System-level property tests: conservation and fairness invariants.

These run short random scenarios and check invariants that must hold
regardless of parameters — the discrete-event analogue of the paper's
Section 2 identities.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.node import Cell
from repro.queueing import DrrScheduler

RATES = [1.0, 2.0, 5.5, 11.0]


@settings(max_examples=10, deadline=None)
@given(
    rates=st.lists(st.sampled_from(RATES), min_size=1, max_size=4),
    scheduler=st.sampled_from(["fifo", "rr", "drr", "tbr"]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_downlink_udp_conservation(rates, scheduler, seed):
    """Delivered bytes never exceed offered bytes; occupancy shares sum
    to 1; attributed airtime never exceeds wall-clock time."""
    cell = Cell(seed=seed, scheduler=scheduler)
    flows = []
    for i, rate in enumerate(rates):
        station = cell.add_station(f"n{i}", rate_mbps=rate)
        flows.append(cell.udp_flow(station, direction="down", rate_mbps=1.0))
    cell.run(seconds=1.0)
    for flow in flows:
        offered = flow.sender.sent * flow.sender.packet_bytes
        assert flow.stats.bytes_delivered <= offered
    shares = cell.occupancy_shares()
    if any(v > 0 for v in shares.values()):
        assert sum(shares.values()) == pytest.approx(1.0)
    # Downlink-only: the AP is the sole data transmitter (stations send
    # nothing), so attributed airtime cannot overlap itself.
    assert sum(cell.channel.occupancies_us().values()) <= cell.sim.now + 1e-6


@settings(max_examples=8, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=100, max_value=1500),
                   min_size=2, max_size=4),
    quantum=st.integers(min_value=200, max_value=2000),
)
def test_drr_byte_fairness_random_sizes(sizes, quantum):
    """DRR equalizes bytes across backlogged queues for any size mix."""
    sched = DrrScheduler(quantum_bytes=quantum, per_station_capacity=10_000)

    class Pkt:
        def __init__(self, station, size):
            self.station = station
            self.size_bytes = size
            self.mac_dst = None

    per_station_target = 60_000
    for i, size in enumerate(sizes):
        name = f"s{i}"
        sched.associate(name)
        total = 0
        while total < per_station_target + 1500:
            sched.enqueue(Pkt(name, size))
            total += size

    served = {f"s{i}": 0 for i in range(len(sizes))}
    # Stop while every queue is still backlogged so fairness applies.
    for _ in range(10_000):
        if any(v >= per_station_target for v in served.values()):
            break
        pkt = sched.dequeue()
        if pkt is None:
            break
        served[pkt.station] += pkt.size_bytes
    values = list(served.values())
    assert max(values) - min(values) <= max(quantum, max(sizes)) + max(sizes)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_tbr_charge_conservation(seed):
    """Every token spent corresponds to a charged exchange: lifetime
    spend equals the sum of per-station spends, and no station's spend
    rate exceeds its fills by more than one bucket of slack."""
    cell = Cell(seed=seed, scheduler="tbr")
    n1 = cell.add_station("n1", rate_mbps=1.0)
    n2 = cell.add_station("n2", rate_mbps=11.0)
    cell.udp_flow(n1, direction="down", rate_mbps=2.0)
    cell.udp_flow(n2, direction="down", rate_mbps=2.0)
    cell.run(seconds=2.0)
    for bucket in cell.scheduler.buckets.values():
        slack = bucket.depth_us + cell.scheduler.config.initial_tokens_us
        assert bucket.spent_us <= bucket.filled_us + slack + 1e-6


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    direction=st.sampled_from(["up", "down"]),
)
def test_tcp_no_phantom_bytes(seed, direction):
    """TCP never delivers bytes that were not sent, and sequence space
    is contiguous at the receiver."""
    cell = Cell(seed=seed)
    station = cell.add_station("n1", rate_mbps=11.0)
    flow = cell.tcp_flow(station, direction=direction)
    cell.run(seconds=1.0)
    sender, receiver = flow.sender, flow.receiver
    assert receiver.rcv_nxt <= sender.snd_nxt
    assert flow.stats.bytes_delivered == receiver.rcv_nxt


def test_occupancy_roughly_bounded_by_wall_clock_under_load():
    # Collided exchanges charge *both* senders (the paper counts failed
    # transmissions toward the sender's occupancy), so with five
    # contenders the attributed total may slightly exceed wall-clock
    # time — but only by the collision overlap, never by much.
    cell = Cell(seed=11, scheduler="fifo")
    for i in range(5):
        st_ = cell.add_station(f"n{i}", rate_mbps=RATES[i % 4])
        cell.tcp_flow(st_, direction="up")
    cell.run(seconds=3.0)
    total = sum(cell.channel.occupancies_us().values())
    assert total <= 1.1 * cell.sim.now
    assert total > 0.5 * cell.sim.now  # and the channel was actually busy
