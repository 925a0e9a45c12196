"""Tests for the broadcast medium: carrier, collisions, delivery."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.channel import Channel, BernoulliLoss
from repro.mac.frames import Frame, FrameType
from repro.sim import Simulator


class RecordingListener:
    """Minimal ChannelListener that logs everything."""

    def __init__(self, address):
        self.address = address
        self.busy_events = []
        self.idle_events = []
        self.frames = []  # (frame, corrupted)

    def on_busy(self, busy_start):
        self.busy_events.append(busy_start)

    def on_idle(self, idle_start):
        self.idle_events.append(idle_start)

    def on_frame_end(self, frame, corrupted):
        self.frames.append((frame, corrupted))


def data_frame(src, dst, size=1500, rate=11.0):
    return Frame(FrameType.DATA, src, dst, size, rate)


def setup(n_listeners=3, loss=None):
    sim = Simulator(seed=1)
    channel = Channel(sim, loss)
    listeners = [RecordingListener(f"n{i}") for i in range(n_listeners)]
    for listener in listeners:
        channel.attach(listener)
    return sim, channel, listeners


def sniff(channel):
    """``{frame: (dest_corrupted, collided)}``, filled as frames end."""
    seen = {}
    channel.add_sniffer(
        lambda f, dest_corr, collided, start, end: seen.__setitem__(
            f, (dest_corr, collided)
        )
    )
    return seen


def test_busy_idle_transitions():
    sim, channel, (a, b, c) = setup()
    channel.carrier_subscribe(a)
    channel.carrier_subscribe(b)
    assert not channel.busy
    channel.transmit(data_frame("n0", "n1"), 100.0)
    assert channel.busy
    assert a.busy_events == [0.0] and b.busy_events == [0.0]
    sim.run()
    assert not channel.busy
    assert b.idle_events == [100.0]


def test_clean_frame_delivered_to_destination_only_uncorrupted():
    sim, channel, (a, b, c) = setup()
    seen = sniff(channel)
    frame = data_frame("n0", "n1")
    channel.transmit(frame, 100.0)
    sim.run()
    assert b.frames == [(frame, False)]
    assert c.frames == []  # a clean frame for n1 does not involve n2
    assert a.frames == []  # sender excluded
    assert seen[frame] == (False, False)  # on the air, it was clean


def test_overlapping_transmissions_collide():
    sim, channel, (a, b, c) = setup()
    f1 = data_frame("n0", "n2")
    f2 = data_frame("n1", "n2")
    channel.transmit(f1, 100.0)
    sim.run(until=50.0)
    channel.transmit(f2, 100.0)
    sim.run()
    received = {f: corrupted for f, corrupted in c.frames}
    assert received[f1] is True
    assert received[f2] is True


def test_sequential_transmissions_do_not_collide():
    sim, channel, (a, b, c) = setup()
    f1 = data_frame("n0", "n2")
    channel.transmit(f1, 100.0)
    sim.run()  # f1 finished
    f2 = data_frame("n1", "n2")
    channel.transmit(f2, 100.0)
    sim.run()
    received = {f: corrupted for f, corrupted in c.frames}
    assert received[f1] is False
    assert received[f2] is False


def test_three_way_collision_corrupts_all():
    sim, channel, listeners = setup(4)
    frames = [data_frame(f"n{i}", "n3") for i in range(3)]
    for frame in frames:
        channel.transmit(frame, 200.0)
    sim.run()
    received = {f: c for f, c in listeners[3].frames}
    assert all(received[f] for f in frames)


def test_collided_sender_is_deaf_to_peer_frame():
    # Half duplex: a station transmitting during the overlap must not
    # observe the other (corrupted) frame — it retries after DIFS, not
    # EIFS, like real silicon that decoded nothing.
    sim, channel, (a, b, c) = setup()
    f1 = data_frame("n0", "n2")
    f2 = data_frame("n1", "n2")
    channel.transmit(f1, 100.0)
    channel.transmit(f2, 100.0)
    sim.run()
    assert a.frames == []  # n0 heard nothing
    assert b.frames == []  # n1 heard nothing
    assert len(c.frames) == 2


def test_loss_model_corrupts_only_destination_view():
    sim, channel, (a, b, c) = setup(loss=BernoulliLoss(1.0))
    seen = sniff(channel)
    frame = data_frame("n0", "n1")
    channel.transmit(frame, 100.0)
    sim.run()
    assert (frame, True) in b.frames  # destination sees corruption
    assert seen[frame] == (True, False)  # lost at n1, not collided
    assert c.frames == []  # nor is it a corrupted frame to anyone else


def test_busy_fraction_accounts_transmissions():
    sim, channel, listeners = setup()
    channel.transmit(data_frame("n0", "n1"), 100.0)
    sim.run(until=200.0)
    assert channel.busy_us / sim.now == pytest.approx(0.5)


def test_busy_fraction_with_inflight_transmission():
    sim, channel, listeners = setup()
    channel.transmit(data_frame("n0", "n1"), 1000.0)
    sim.run(until=100.0)
    assert channel.busy_us / sim.now == pytest.approx(1.0)


def test_attach_duplicate_listener_rejected():
    sim, channel, listeners = setup(1)
    with pytest.raises(ValueError):
        channel.attach(listeners[0])


def test_attach_duplicate_address_rejected():
    # A second listener under an attached address would take over every
    # frame addressed to the first.
    sim, channel, (a, b) = setup(2)
    with pytest.raises(ValueError, match="n1"):
        channel.attach(RecordingListener("n1"))
    frame = data_frame("n0", "n1")
    channel.transmit(frame, 100.0)
    sim.run()
    assert b.frames == [(frame, False)]
    assert channel.listeners == [a, b]


def test_transmit_rejects_nonpositive_duration():
    sim, channel, listeners = setup()
    with pytest.raises(ValueError):
        channel.transmit(data_frame("n0", "n1"), 0.0)


def test_sniffer_sees_every_frame_with_collision_flag():
    sim, channel, listeners = setup()
    flags = sniff(channel)
    f1 = data_frame("n0", "n1")
    channel.transmit(f1, 100.0)
    sim.run()
    f2 = data_frame("n0", "n2")
    f3 = data_frame("n1", "n2")
    channel.transmit(f2, 100.0)
    channel.transmit(f3, 100.0)
    sim.run()
    assert flags[f1] == (False, False)
    assert flags[f2] == (True, True)
    assert flags[f3] == (True, True)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 40), st.integers(1, 12)),
    min_size=1, max_size=8,
))
def test_collided_is_exactly_overlaps_another(intervals):
    # Overlap => collided, with no exception, and nothing else collides:
    # a frame overlapping one that overlaps a third (a chain) collides
    # through its own overlap, and one that starts the instant another
    # ended (that end handled first) is clean.
    sim = Simulator(seed=1)
    channel = Channel(sim)
    seen = sniff(channel)
    frames = []
    for i, (start, duration) in enumerate(intervals):
        frame = data_frame(f"n{i}", "ap")
        frames.append(frame)
        sim.schedule_at(float(start), channel.transmit, frame, float(duration))
    sim.run()
    for i, (start, duration) in enumerate(intervals):
        overlaps = any(
            start < other + length and other < start + duration
            for j, (other, length) in enumerate(intervals) if j != i
        )
        assert seen[frames[i]] == (overlaps, overlaps)
