"""Tests for the channel's snapshot/subscription notification paths."""

import pytest

from repro.channel import Channel
from repro.mac.frames import BROADCAST, Frame, FrameType
from repro.sim import EventPriority, Simulator


class RecordingListener:
    def __init__(self, address):
        self.address = address
        self.busy_events = []
        self.idle_events = []
        self.frames = []

    def on_busy(self, busy_start):
        self.busy_events.append(busy_start)

    def on_idle(self, idle_start):
        self.idle_events.append(idle_start)

    def on_frame_end(self, frame, corrupted):
        self.frames.append((frame, corrupted))


def data_frame(src, dst, size=1500, rate=11.0):
    return Frame(FrameType.DATA, src, dst, size, rate)


def setup(n=3):
    sim = Simulator(seed=1)
    channel = Channel(sim)
    listeners = [RecordingListener(f"n{i}") for i in range(n)]
    for listener in listeners:
        channel.attach(listener)
    return sim, channel, listeners


# ----------------------------------------------------------------------
# carrier subscription
# ----------------------------------------------------------------------
def test_listeners_subscribed_by_default():
    sim, channel, (a, b, c) = setup()
    channel.transmit(data_frame("n0", "n1"), 100.0)
    sim.run()
    for listener in (a, b, c):
        assert listener.busy_events == [0.0]
        assert listener.idle_events == [100.0]


def test_unsubscribed_listener_skips_carrier_but_not_frames():
    sim, channel, (a, b, c) = setup()
    channel.carrier_unsubscribe(c)
    frame = data_frame("n0", "n1")
    channel.transmit(frame, 100.0)
    sim.run()
    assert c.busy_events == [] and c.idle_events == []
    assert b.busy_events == [0.0]
    assert (frame, False) in c.frames  # frame-end unaffected


def test_resubscribe_restores_notifications():
    sim, channel, (a, b, c) = setup()
    channel.carrier_unsubscribe(b)
    channel.transmit(data_frame("n0", "n1"), 50.0)
    sim.run()
    channel.carrier_subscribe(b)
    channel.transmit(data_frame("n0", "n1"), 50.0)  # starts at t=50
    sim.run()
    assert b.busy_events == [50.0]
    assert b.idle_events == [100.0]


def test_unsubscribe_is_idempotent():
    sim, channel, (a, b, c) = setup()
    channel.carrier_unsubscribe(b)
    channel.carrier_unsubscribe(b)
    channel.carrier_subscribe(b)
    channel.carrier_subscribe(b)
    channel.transmit(data_frame("n0", "n1"), 10.0)
    sim.run()
    assert b.busy_events == [0.0]


def test_notification_order_is_attach_order_after_churn():
    sim, channel, listeners = setup(4)
    order = []
    for listener in listeners:
        listener.on_busy = (
            lambda start, addr=listener.address: order.append(addr)
        )
    # Churn the subscription set: drop and re-add out of attach order.
    for listener in (listeners[2], listeners[0], listeners[3]):
        channel.carrier_unsubscribe(listener)
    for listener in (listeners[3], listeners[0], listeners[2]):
        channel.carrier_subscribe(listener)
    channel.transmit(data_frame("n0", "n1"), 10.0)
    sim.run()
    assert order == ["n0", "n1", "n2", "n3"]


def test_carrier_busy_and_idle_start_track_medium():
    sim, channel, listeners = setup()
    assert not channel.carrier_busy
    assert channel.idle_start == 0.0
    channel.transmit(data_frame("n0", "n1"), 100.0)
    assert channel.carrier_busy
    sim.run()
    assert not channel.carrier_busy
    assert channel.idle_start == 100.0


def test_carrier_busy_holds_during_frame_end_broadcast():
    # During the frame-end notifications of the transmission that
    # empties the medium, carrier_busy must still read True (the idle
    # notification has not gone out yet).
    sim = Simulator(seed=1)
    channel = Channel(sim)
    seen = []

    class Probe(RecordingListener):
        def on_frame_end(self, frame, corrupted):
            seen.append((channel.busy, channel.carrier_busy))

    channel.attach(RecordingListener("n0"))
    channel.attach(Probe("n1"))
    channel.transmit(data_frame("n0", "n1"), 100.0)
    sim.run()
    assert seen == [(False, True)]


# ----------------------------------------------------------------------
# filtered frame-end delivery
# ----------------------------------------------------------------------
def test_filtered_listener_hears_own_unicast_only_when_involved():
    sim, channel, (a, b, c) = setup()
    channel.frame_end_filtered(c)
    to_b = data_frame("n0", "n1")
    channel.transmit(to_b, 100.0)
    sim.run()
    assert to_b not in [f for f, _ in c.frames]  # clean, not for c
    to_c = data_frame("n0", "n2")
    channel.transmit(to_c, 100.0)
    sim.run()
    assert (to_c, False) in c.frames  # destination always hears it


def test_filtered_listener_hears_broadcast_and_collisions():
    sim, channel, (a, b, c) = setup()
    channel.frame_end_filtered(c)
    bcast = data_frame("n0", BROADCAST)
    channel.transmit(bcast, 100.0)
    sim.run()
    assert (bcast, False) in c.frames
    f1 = data_frame("n0", "n1")
    f2 = data_frame("n1", "n0")
    channel.transmit(f1, 100.0)
    channel.transmit(f2, 100.0)
    sim.run()
    corrupted_views = [f for f, corrupted in c.frames if corrupted]
    assert f1 in corrupted_views and f2 in corrupted_views


def test_eifs_mark_delivers_next_clean_frame_then_unmark_stops():
    sim, channel, (a, b, c) = setup()
    channel.frame_end_filtered(c)
    channel.eifs_mark(c)
    first = data_frame("n0", "n1")
    channel.transmit(first, 100.0)
    sim.run()
    assert (first, False) in c.frames  # marked: hears the clean frame
    channel.eifs_unmark(c)
    second = data_frame("n0", "n1")
    channel.transmit(second, 100.0)
    sim.run()
    assert second not in [f for f, _ in c.frames]


def test_eifs_marked_listener_is_spared_corrupted_frames_for_others():
    # Its handler for one more corrupted frame addressed elsewhere is a
    # bare return; one addressed to it still counts (``rx_corrupted``).
    sim, channel, (a, b, c) = setup()
    channel.frame_end_filtered(c)
    channel.eifs_mark(c)
    channel.eifs_mark(a)  # unfiltered: hears everything regardless
    elsewhere, to_c = data_frame("x", "n1"), data_frame("y", "n2")
    channel.transmit(elsewhere, 100.0)
    channel.transmit(to_c, 100.0)
    sim.run()
    assert c.frames == [(to_c, True)]
    assert a.frames == b.frames == [(elsewhere, True), (to_c, True)]


def test_unfiltered_listeners_hear_everything():
    sim, channel, (a, b, c) = setup()
    channel.frame_end_filtered(c)
    frame = data_frame("n1", "n2")
    channel.transmit(frame, 100.0)
    sim.run()
    # a is neither src, dst nor filtered: still notified (observer).
    assert (frame, False) in a.frames


def test_attach_duplicate_listener_still_rejected():
    sim, channel, listeners = setup(1)
    with pytest.raises(ValueError):
        channel.attach(listeners[0])


# ----------------------------------------------------------------------
# the response hold
# ----------------------------------------------------------------------
SIFS = 10.0


class Responder(RecordingListener):
    """Answers a clean frame addressed to it after SIFS, as a DCF
    receiver does — reserving the response with its channel."""

    def __init__(self, address, sim, channel):
        super().__init__(address)
        self.sim, self.channel = sim, channel
        self.response = None

    def on_frame_end(self, frame, corrupted):
        super().on_frame_end(frame, corrupted)
        if frame.dst == self.address and not corrupted and not frame.is_ack:
            ack = Frame(FrameType.ACK, self.address, frame.src, 14, 2.0)
            self.response = self.sim.schedule(
                SIFS, self.channel.transmit, ack, 50.0,
                priority=EventPriority.TX_START,
            )
            self.channel.reserve_response(self.sim.now + SIFS)


def hold_setup(sim=None, tag=""):
    """A channel with an observer ``obs`` and a responder ``rx``
    (``tag`` keeps addresses unique across coupled media)."""
    sim = sim if sim is not None else Simulator(seed=1)
    channel = Channel(sim)
    obs = RecordingListener(f"obs{tag}")
    rx = Responder(f"rx{tag}", sim, channel)
    channel.attach(obs)
    channel.attach(rx)
    return sim, channel, obs, rx


def test_hold_withholds_both_edges_of_the_sifs_gap():
    sim, channel, obs, rx = hold_setup()
    channel.transmit(data_frame("tx", rx.address), 100.0)
    sim.run(until=105.0)
    # Idle on the air, busy to anyone deciding whether to arm.
    assert (channel.busy, channel.carrier_busy) == (False, True)
    assert channel.idle_start == 100.0
    assert obs.idle_events == []
    sim.run()
    # One busy period to the listeners; two to the medium's own books.
    assert obs.busy_events == [0.0]
    assert obs.idle_events == [160.0]
    assert channel.busy_fraction() == pytest.approx(150.0 / 160.0)
    assert not channel.carrier_busy


def test_foreign_frame_inside_the_gap_collides_with_the_response():
    sim, channel, obs, rx = hold_setup()
    data = data_frame("tx", rx.address)
    foreign = data_frame("far", "away")
    channel.transmit(data, 100.0)
    sim.schedule(104.0, channel.transmit, foreign, 200.0)
    sim.run(until=105.0)
    # The foreign frame ended the hold; nobody had been told "idle", so
    # nobody is told "busy" either.
    assert (channel.busy, channel.carrier_busy) == (True, True)
    assert obs.busy_events == [0.0] and obs.idle_events == []
    sim.run()
    corrupted = {frame: bad for frame, bad in obs.frames}
    assert corrupted[foreign] and not corrupted[data]
    assert [bad for frame, bad in obs.frames if frame.is_ack] == [True]
    assert obs.busy_events == [0.0]
    assert obs.idle_events == [304.0]  # once, when the last one ends


def test_hold_propagates_to_coupled_media():
    sim, here, _, rx = hold_setup()
    _, there, neighbour, _ = hold_setup(sim, "-there")
    here.couple(there)
    here.transmit(data_frame("tx", rx.address), 100.0)
    sim.run(until=105.0)
    assert (there.busy, there.carrier_busy) == (False, True)
    assert neighbour.idle_events == []
    sim.run()
    assert neighbour.busy_events == [0.0]
    assert neighbour.idle_events == [160.0]


def chain():
    """``a - m - c``: the ends are hidden from each other, the middle
    hears both.  Frames end at 100 (on a) and 104 (on c), each answered
    after SIFS, so m holds from 104 with two reservations behind it."""
    sim, a, _, rx_a = hold_setup(tag="-a")
    _, m, middle, _ = hold_setup(sim, "-m")
    _, c, _, rx_c = hold_setup(sim, "-c")
    for end in (a, c):
        end.couple(m)
        m.couple(end)
    a.transmit(data_frame("tx-a", rx_a.address), 100.0)
    sim.schedule(4.0, c.transmit, data_frame("tx-c", rx_c.address), 100.0)
    return sim, a, m, middle, rx_a


def test_second_reservation_does_not_strand_the_deferred_idle():
    sim, _, m, middle, _ = chain()
    sim.run(until=105.0)
    assert (m.busy, m.carrier_busy) == (False, True)
    sim.run()
    # a's response (110) ended m's hold silently, c's (114) collided
    # with it; the one idle edge comes when the later of the two ends.
    assert middle.busy_events == [0.0]
    assert middle.idle_events == [164.0]


def test_foreign_cancel_delivers_the_deferred_idle():
    sim, a, m, middle, rx_a = chain()
    sim.run(until=107.0)
    rx_a.response.cancel()
    a.cancel_response()
    # m was holding for c's response as well, but releasing early is
    # always safe: the listeners get the true idle start, late.
    assert middle.idle_events == [104.0]
    assert not m.carrier_busy
    sim.run()
    assert middle.busy_events == [0.0, 114.0]
    assert middle.idle_events == [104.0, 164.0]


def test_reservation_after_the_fact_defers_nothing_later():
    # A receiver on a coupled medium reserves after this medium's copy
    # already ended and told everyone (a roamed receiver answering
    # cross-cell): the reservation expires with its SIFS.
    sim, channel, obs, _ = hold_setup()
    channel.transmit(data_frame("tx", "elsewhere"), 100.0)
    sim.run()
    assert obs.idle_events == [100.0]
    channel.reserve_response(sim.now + SIFS)
    sim.run(until=200.0)  # the response never comes
    channel.transmit(data_frame("tx", "elsewhere"), 100.0)
    sim.run()
    assert obs.idle_events == [100.0, 300.0]
