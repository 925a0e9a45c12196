"""Tests for the TCP Reno implementation over a controllable pipe."""

import pytest

from repro.sim import Simulator
from repro.transport import FlowStats, TcpParams, TcpReceiver, TcpSender


class Pipe:
    """A bidirectional delay pipe with scriptable segment drops."""

    def __init__(self, sim, delay_us=5000.0):
        self.sim = sim
        self.delay_us = delay_us
        self.sender = None
        self.receiver = None
        self.drop_data = set()  # segment seqs to drop once
        self.drop_every_data = False
        self.data_sent = []

    def tx_data(self, size_bytes, seg):
        self.data_sent.append(seg.seq)
        if self.drop_every_data:
            return
        if seg.seq in self.drop_data:
            self.drop_data.discard(seg.seq)
            return
        self.sim.schedule(self.delay_us, self.receiver.on_segment, seg)

    def tx_ack(self, size_bytes, ack):
        self.sim.schedule(self.delay_us, self.sender.on_ack, ack)


def make_connection(sim, params=None, delay_us=5000.0):
    pipe = Pipe(sim, delay_us)
    stats = FlowStats(sim, "flow")
    sender = TcpSender(sim, "snd", pipe.tx_data, params)
    receiver = TcpReceiver(sim, "rcv", pipe.tx_ack, params, stats)
    pipe.sender = sender
    pipe.receiver = receiver
    return pipe, sender, receiver, stats


def test_bulk_transfer_delivers_in_order():
    sim = Simulator()
    pipe, sender, receiver, stats = make_connection(sim)
    sender.set_unbounded()
    sim.run(until=500 * 1000.0)
    assert stats.bytes_delivered > 100_000
    # Acks may still be in flight; the receiver can only be ahead.
    assert receiver.rcv_nxt >= sender.snd_una
    assert receiver.rcv_nxt == stats.bytes_delivered
    assert sender.timeouts == 0
    assert sender.retransmits == 0


def test_task_completes_and_fires_callback():
    sim = Simulator()
    pipe, sender, receiver, stats = make_connection(sim)
    fired = []
    sender.on_complete = lambda: fired.append(sim.now)
    sender.supply(14600)  # 10 segments
    sender.finish()
    sim.run(until=2000 * 1000.0)
    assert fired, "completion callback must fire"
    assert stats.bytes_delivered == 14600
    assert sender.snd_una == 14600


def test_slow_start_doubles_window_per_rtt():
    sim = Simulator()
    params = TcpParams(init_cwnd_segments=2.0)
    pipe, sender, receiver, stats = make_connection(sim, params)
    sender.set_unbounded()
    # After a few RTTs cwnd should have grown well beyond initial.
    sim.run(until=100 * 1000.0)  # 10 RTTs at 10 ms
    assert sender.cwnd > 10 * params.mss


def test_delayed_ack_ratio():
    sim = Simulator()
    params = TcpParams(delack_segments=2)
    pipe, sender, receiver, stats = make_connection(sim)
    sender.set_unbounded()
    sim.run(until=300 * 1000.0)
    # Roughly one ack per two segments (within slack for window edges).
    ratio = receiver.acks_sent / max(1, stats.segments_delivered)
    assert ratio < 0.7


def test_single_loss_triggers_fast_retransmit_not_timeout():
    sim = Simulator()
    pipe, sender, receiver, stats = make_connection(sim)
    pipe.drop_data.add(1460 * 10)  # drop the 11th segment once
    sender.set_unbounded()
    sim.run(until=400 * 1000.0)
    assert sender.fast_retransmits >= 1
    assert sender.timeouts == 0
    assert receiver.rcv_nxt > 1460 * 20  # recovered and moved on


def test_fast_recovery_halves_cwnd():
    sim = Simulator()
    pipe, sender, receiver, stats = make_connection(sim)
    sender.set_unbounded()
    sim.run(until=150 * 1000.0)
    before = sender.cwnd
    pipe.drop_data.add(sender.snd_nxt)  # next new segment lost
    sim.run(until=300 * 1000.0)
    assert sender.fast_retransmits >= 1
    assert sender.cwnd < before


def test_total_blackout_uses_rto_backoff():
    sim = Simulator()
    pipe, sender, receiver, stats = make_connection(sim)
    pipe.drop_every_data = True
    sender.supply(1460)
    sender.finish()
    sim.run(until=4000 * 1000.0)
    assert sender.timeouts >= 2
    assert sender.rto > TcpParams().min_rto_us


def test_recovery_after_blackout():
    sim = Simulator()
    pipe, sender, receiver, stats = make_connection(sim)
    pipe.drop_every_data = True
    sender.supply(14600)
    sender.finish()
    sim.run(until=700 * 1000.0)

    def heal():
        pipe.drop_every_data = False

    sim.schedule(0.0, heal)
    sim.run(until=8000 * 1000.0)
    assert stats.bytes_delivered == 14600


def test_out_of_order_segments_buffered():
    sim = Simulator()
    params = TcpParams()
    stats = FlowStats(sim, "f")
    acks = []
    receiver = TcpReceiver(sim, "r", lambda s, a: acks.append(a.ackno),
                           params, stats)
    from repro.transport.tcp import TcpSegment

    receiver.on_segment(TcpSegment(1460, 1460, 1.0))  # hole at 0
    assert stats.bytes_delivered == 0
    assert acks[-1] == 0  # dup ack advertising the hole
    receiver.on_segment(TcpSegment(0, 1460, 2.0))
    assert stats.bytes_delivered == 2920
    assert receiver.rcv_nxt == 2920


def test_duplicate_segment_counted_and_acked():
    sim = Simulator()
    acks = []
    receiver = TcpReceiver(sim, "r", lambda s, a: acks.append(a.ackno))
    from repro.transport.tcp import TcpSegment

    receiver.on_segment(TcpSegment(0, 1460, 1.0))
    receiver.on_segment(TcpSegment(0, 1460, 1.0))
    assert receiver.duplicates == 1
    assert acks[-1] == 1460


def test_delack_timer_flushes_single_segment():
    sim = Simulator()
    params = TcpParams(delack_segments=2, delack_timeout_us=40_000.0)
    acks = []
    receiver = TcpReceiver(sim, "r", lambda s, a: acks.append(sim.now), params)
    from repro.transport.tcp import TcpSegment

    receiver.on_segment(TcpSegment(0, 1460, 1.0))
    assert acks == []  # delayed
    sim.run(until=100_000.0)
    assert len(acks) == 1
    assert acks[0] == pytest.approx(40_000.0)


def test_rtt_estimation_sets_rto():
    sim = Simulator()
    pipe, sender, receiver, stats = make_connection(sim, delay_us=10_000.0)
    sender.set_unbounded()
    sim.run(until=300 * 1000.0)
    assert sender.srtt is not None
    assert sender.srtt == pytest.approx(20_000.0, rel=0.5)
    assert sender.rto >= TcpParams().min_rto_us


def test_window_limits_inflight():
    sim = Simulator()
    params = TcpParams(rwnd_segments=4, init_ssthresh_segments=100.0)
    pipe, sender, receiver, stats = make_connection(sim, params)
    sender.set_unbounded()
    sim.run(until=200 * 1000.0)
    assert sender.flight_size <= 4 * params.mss


def test_supply_validation():
    sim = Simulator()
    sender = TcpSender(sim, "s", lambda s, p: None)
    with pytest.raises(ValueError):
        sender.supply(-1)


def test_params_validation():
    with pytest.raises(ValueError):
        TcpParams(mss=0)
    with pytest.raises(ValueError):
        TcpParams(rwnd_segments=0)
    with pytest.raises(ValueError):
        TcpParams(delack_segments=0)


def test_sub_mss_tail_segment():
    sim = Simulator()
    pipe, sender, receiver, stats = make_connection(sim)
    done = []
    sender.on_complete = lambda: done.append(True)
    sender.supply(2000)  # 1460 + 540 tail
    sender.finish()
    sim.run(until=1000 * 1000.0)
    assert done
    assert stats.bytes_delivered == 2000
