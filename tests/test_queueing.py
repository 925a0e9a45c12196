"""Tests for AP downlink queueing disciplines."""

import pytest

from repro.queueing import (
    ApFifoScheduler,
    ApScheduler,
    DrrScheduler,
    RoundRobinScheduler,
    StationQueue,
)


class Pkt:
    def __init__(self, station, size=1500):
        self.station = station
        self.size_bytes = size
        self.mac_dst = None


class FakeMac:
    def __init__(self):
        self.notifications = 0

    def notify_pending(self):
        self.notifications += 1


# ----------------------------------------------------------------------
# StationQueue
# ----------------------------------------------------------------------
def test_station_queue_fifo_order():
    q = StationQueue("a", 10)
    p1, p2 = Pkt("a"), Pkt("a")
    q.push(p1)
    q.push(p2)
    assert q.head() is p1
    assert q.pop() is p1
    assert q.pop() is p2


def test_station_queue_drop_tail():
    q = StationQueue("a", 2)
    assert q.push(Pkt("a"))
    assert q.push(Pkt("a"))
    assert not q.push(Pkt("a"))
    assert q.dropped == 1
    assert len(q) == 2


def test_station_queue_capacity_validation():
    with pytest.raises(ValueError):
        StationQueue("a", 0)


# ----------------------------------------------------------------------
# base ApScheduler behaviour (via RoundRobin)
# ----------------------------------------------------------------------
def test_association_splits_capacity():
    sched = RoundRobinScheduler(total_capacity=100)
    sched.associate("a")
    assert sched.queues["a"].capacity == 100
    sched.associate("b")
    assert sched.queues["a"].capacity == 50
    assert sched.queues["b"].capacity == 50
    sched.associate("c")
    assert sched.queues["a"].capacity == 33


def test_reassociation_is_idempotent():
    sched = RoundRobinScheduler()
    sched.associate("a")
    sched.associate("a")
    assert sched.stations() == ["a"]


def test_enqueue_auto_associates_and_wakes_mac():
    sched = RoundRobinScheduler()
    mac = FakeMac()
    sched.bind(mac)
    assert sched.enqueue(Pkt("new"))
    assert "new" in sched.queues
    assert mac.notifications == 1


def test_per_station_capacity_override():
    sched = RoundRobinScheduler(per_station_capacity=7)
    sched.associate("a")
    sched.associate("b")
    assert sched.queues["a"].capacity == 7


def test_backlog_and_drops_reporting():
    sched = RoundRobinScheduler(per_station_capacity=1)
    sched.enqueue(Pkt("a"))
    sched.enqueue(Pkt("a"))  # dropped
    assert sched.backlog("a") == 1
    assert sched.dropped() == 1


def test_completion_listeners_invoked():
    sched = RoundRobinScheduler()
    seen = []
    sched.completion_listeners.append(
        lambda p, a, s, n, r: seen.append((p, a, s, n, r))
    )
    pkt = Pkt("a")
    sched.on_complete(pkt, 123.0, True, 2, 11.0)
    assert seen == [(pkt, 123.0, True, 2, 11.0)]


# ----------------------------------------------------------------------
# round robin
# ----------------------------------------------------------------------
def test_round_robin_alternates():
    sched = RoundRobinScheduler()
    for station in ("a", "b"):
        sched.associate(station)
    pkts = {s: [Pkt(s) for _ in range(3)] for s in ("a", "b")}
    for i in range(3):
        for s in ("a", "b"):
            sched.enqueue(pkts[s][i])
    order = [sched.dequeue().station for _ in range(6)]
    assert order == ["a", "b", "a", "b", "a", "b"]


def test_round_robin_skips_empty_queues():
    sched = RoundRobinScheduler()
    sched.associate("a")
    sched.associate("b")
    sched.enqueue(Pkt("b"))
    assert sched.dequeue().station == "b"
    assert sched.dequeue() is None


def test_round_robin_empty():
    sched = RoundRobinScheduler()
    assert sched.dequeue() is None


# ----------------------------------------------------------------------
# shared FIFO
# ----------------------------------------------------------------------
def test_fifo_preserves_arrival_order_across_stations():
    sched = ApFifoScheduler()
    order_in = ["a", "b", "a", "c", "b"]
    for s in order_in:
        sched.enqueue(Pkt(s))
    order_out = [sched.dequeue().station for _ in range(5)]
    assert order_out == order_in


def test_fifo_capacity_shared():
    sched = ApFifoScheduler(total_capacity=3)
    assert all(sched.enqueue(Pkt("a")) for _ in range(3))
    assert not sched.enqueue(Pkt("b"))
    assert sched.dropped() == 1
    assert sched.backlog("a") == 3
    assert sched.backlog("b") == 0


# ----------------------------------------------------------------------
# DRR
# ----------------------------------------------------------------------
def test_drr_equal_sizes_behaves_like_rr():
    sched = DrrScheduler(quantum_bytes=1500)
    for s in ("a", "b"):
        sched.associate(s)
        for _ in range(4):
            sched.enqueue(Pkt(s, 1500))
    order = [sched.dequeue().station for _ in range(8)]
    assert order.count("a") == 4 and order.count("b") == 4
    # Perfect alternation with equal packet sizes.
    assert all(x != y for x, y in zip(order, order[1:]))


def test_drr_equalizes_bytes_with_mixed_sizes():
    # a sends 1500B packets, b sends 500B packets: per byte-fairness b
    # must dequeue ~3x as many packets.
    sched = DrrScheduler(quantum_bytes=500)
    sched.associate("a")
    sched.associate("b")
    for _ in range(30):
        sched.enqueue(Pkt("a", 1500))
        sched.enqueue(Pkt("b", 500))
    bytes_out = {"a": 0, "b": 0}
    for _ in range(40):
        pkt = sched.dequeue()
        if pkt is None:
            break
        bytes_out[pkt.station] += pkt.size_bytes
    ratio = bytes_out["a"] / bytes_out["b"]
    assert 0.8 < ratio < 1.25


def test_drr_does_not_starve_large_packets():
    # Quantum smaller than the packet: credits accumulate over rounds.
    sched = DrrScheduler(quantum_bytes=100)
    sched.associate("big")
    sched.enqueue(Pkt("big", 1500))
    assert sched.dequeue().station == "big"


def test_drr_empty_queue_forfeits_deficit():
    sched = DrrScheduler(quantum_bytes=1500)
    sched.associate("a")
    sched.associate("b")
    sched.enqueue(Pkt("a", 100))
    assert sched.dequeue().station == "a"
    # a's queue is now empty; any residual deficit must not persist.
    sched.enqueue(Pkt("b", 1500))
    sched.dequeue()
    assert sched.deficit["a"] == 0.0


def test_drr_quantum_validation():
    with pytest.raises(ValueError):
        DrrScheduler(quantum_bytes=0)


def test_drr_serves_all_without_loss():
    sched = DrrScheduler(quantum_bytes=700)
    sizes = {"a": 1500, "b": 300, "c": 900}
    for s, size in sizes.items():
        sched.associate(s)
        for _ in range(5):
            sched.enqueue(Pkt(s, size))
    served = []
    while (pkt := sched.dequeue()) is not None:
        served.append(pkt)
    assert len(served) == 15
