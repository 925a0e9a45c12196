"""Tests for UDP, apps, wired links, packets and flow stats."""

import pytest

from repro.sim import Simulator, us_from_s
from repro.transport import (
    BulkApp,
    FlowStats,
    PacedApp,
    Packet,
    TaskApp,
    TcpSender,
    UdpSender,
    UdpSink,
    WiredLink,
)


# ----------------------------------------------------------------------
# Packet
# ----------------------------------------------------------------------
def test_packet_fields_and_deliver():
    got = []
    pkt = Packet(100, "sta", to_station=True, payload="x",
                 on_receive=got.append)
    pkt.deliver()
    assert got == [pkt]
    assert pkt.station == "sta"
    assert pkt.to_station


def test_packet_deliver_without_handler_is_noop():
    Packet(100, "sta", to_station=False).deliver()


def test_packet_size_validation():
    with pytest.raises(ValueError):
        Packet(0, "sta", to_station=True)


def test_packet_uids_unique():
    a = Packet(1, "s", to_station=True)
    b = Packet(1, "s", to_station=True)
    assert a.uid != b.uid


# ----------------------------------------------------------------------
# UDP
# ----------------------------------------------------------------------
def test_udp_cbr_rate():
    sim = Simulator(seed=1)
    sent_bytes = []
    sender = UdpSender(sim, "u", lambda size, d: sent_bytes.append(size),
                       rate_mbps=2.0, payload_bytes=1472)
    sim.run(until=us_from_s(2.0))
    rate = sum(sent_bytes) * 8.0 / us_from_s(2.0)
    assert rate == pytest.approx(2.0, rel=0.05)


def test_udp_jitter_keeps_long_term_rate():
    sim = Simulator(seed=2)
    count = []
    UdpSender(sim, "u", lambda s, d: count.append(s), rate_mbps=4.0,
              jitter_fraction=0.3)
    sim.run(until=us_from_s(3.0))
    rate = sum(count) * 8.0 / us_from_s(3.0)
    assert rate == pytest.approx(4.0, rel=0.05)


def test_udp_stop():
    sim = Simulator(seed=1)
    count = []
    sender = UdpSender(sim, "u", lambda s, d: count.append(s), rate_mbps=8.0)
    sim.run(until=100 * 1000.0)
    sender.stop()
    n = len(count)
    sim.run(until=us_from_s(1.0))
    assert len(count) == n


def test_udp_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        UdpSender(sim, "u", lambda s, d: None, rate_mbps=0.0)
    with pytest.raises(ValueError):
        UdpSender(sim, "u", lambda s, d: None, rate_mbps=1.0, payload_bytes=0)
    with pytest.raises(ValueError):
        UdpSender(sim, "u", lambda s, d: None, rate_mbps=1.0,
                  jitter_fraction=1.0)


def test_udp_sink_counts_and_detects_reordering():
    from repro.transport.udp import UdpDatagram

    sim = Simulator()
    stats = FlowStats(sim, "f")
    sink = UdpSink(stats)
    sink.on_datagram(UdpDatagram(1, 0.0), 1500)
    sink.on_datagram(UdpDatagram(3, 0.0), 1500)
    sink.on_datagram(UdpDatagram(2, 0.0), 1500)
    assert sink.received == 3
    assert sink.reordered == 1
    assert stats.bytes_delivered == 4500


# ----------------------------------------------------------------------
# apps
# ----------------------------------------------------------------------
def test_bulk_app_unbounds_sender():
    sim = Simulator()
    sender = TcpSender(sim, "s", lambda s, p: None)
    BulkApp(sender)
    assert sender.app_limit is None


def test_task_app_validation():
    sim = Simulator()
    sender = TcpSender(sim, "s", lambda s, p: None)
    with pytest.raises(ValueError):
        TaskApp(sim, sender, 0)


def test_paced_app_supplies_at_rate():
    sim = Simulator()
    supplied = []
    sender = TcpSender(sim, "s", lambda s, p: None)
    sender.supply = lambda n: supplied.append(n)  # spy
    PacedApp(sim, sender, rate_mbps=1.0, chunk_interval_us=10_000.0)
    sim.run(until=us_from_s(1.0))
    total = sum(supplied)
    assert total == pytest.approx(1e6 / 8.0, rel=0.02)


def test_paced_app_stop():
    sim = Simulator()
    supplied = []
    sender = TcpSender(sim, "s", lambda s, p: None)
    sender.supply = lambda n: supplied.append(n)
    app = PacedApp(sim, sender, rate_mbps=1.0)
    sim.run(until=100 * 1000.0)
    app.stop()
    n = len(supplied)
    sim.run(until=us_from_s(1.0))
    assert len(supplied) == n


def test_paced_app_validation():
    sim = Simulator()
    sender = TcpSender(sim, "s", lambda s, p: None)
    with pytest.raises(ValueError):
        PacedApp(sim, sender, rate_mbps=0.0)


# ----------------------------------------------------------------------
# wired link
# ----------------------------------------------------------------------
def test_wired_link_delay():
    sim = Simulator()
    got = []
    link = WiredLink(sim, delay_us=2000.0)
    pkt = Packet(100, "s", to_station=False)
    link.send(pkt, lambda p: got.append(sim.now))
    sim.run()
    assert got == [2000.0]


def test_wired_link_serialization_rate():
    sim = Simulator()
    got = []
    link = WiredLink(sim, delay_us=0.0, rate_mbps=8.0)  # 1 B/us
    for _ in range(3):
        link.send(Packet(1000, "s", to_station=False),
                  lambda p: got.append(sim.now))
    sim.run()
    assert got == [1000.0, 2000.0, 3000.0]


def test_wired_link_fifo_order():
    sim = Simulator()
    got = []
    link = WiredLink(sim, delay_us=100.0, rate_mbps=8.0)
    a = Packet(1000, "s", to_station=False)
    b = Packet(10, "s", to_station=False)
    link.send(a, got.append)
    link.send(b, got.append)
    sim.run()
    assert got == [a, b]


def test_wired_link_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        WiredLink(sim, delay_us=-1.0)
    with pytest.raises(ValueError):
        WiredLink(sim, rate_mbps=-1.0)


# ----------------------------------------------------------------------
# flow stats
# ----------------------------------------------------------------------
def test_flow_stats_throughput_and_reset():
    sim = Simulator()
    stats = FlowStats(sim, "f")
    stats.on_deliver(12500)  # 100000 bits
    sim.run(until=10_000.0)
    assert stats.throughput_mbps() == pytest.approx(10.0)
    stats.reset()
    assert stats.bytes_delivered == 0
    assert stats.throughput_mbps() == 0.0


def test_flow_stats_completion():
    sim = Simulator()
    stats = FlowStats(sim, "f")
    assert not stats.completed
    sim.run(until=500.0)
    stats.mark_complete()
    stats.mark_complete()  # idempotent
    assert stats.completed
    assert stats.completion_time_us() == 500.0
