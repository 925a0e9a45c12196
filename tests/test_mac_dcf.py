"""Tests for the DCF MAC state machine."""

import pytest

from repro.channel import Channel, PerLinkLoss
from repro.mac import DcfMac, FifoTxScheduler, MacConfig
from repro.phy import DOT11B_LONG_PREAMBLE, ack_airtime_us, frame_airtime_us
from repro.sim import Simulator, us_from_s

from tests.conftest import MacHarness, SimplePacket

PHY = DOT11B_LONG_PREAMBLE


def test_single_sender_delivers_packet():
    h = MacHarness(1)
    h.scheds[0].enqueue(SimplePacket("ap", 1000))
    h.sim.run()
    assert h.rx_bytes.get("sta0") == 1000
    assert h.macs[0].tx_success == 1


def test_first_packet_uses_immediate_access():
    # Medium idle since t=0; a packet arriving at t >= DIFS transmits
    # immediately: reception completes exactly after the frame + SIFS +
    # ACK with no backoff slots.
    h = MacHarness(1)
    start = 1000.0
    done = []
    h.macs[0].add_completion_listener(lambda rep: done.append(h.sim.now))
    h.sim.run(until=start)
    h.scheds[0].enqueue(SimplePacket("ap", 1500))
    h.sim.run(until=start + 10_000.0)
    data = frame_airtime_us(PHY, 1500, 11.0)
    ack = ack_airtime_us(PHY, 2.0)
    expected_end = start + data + PHY.sifs_us + ack
    assert h.macs[0].tx_success == 1
    assert done == [pytest.approx(expected_end, abs=1e-6)]


def test_post_tx_backoff_spaces_consecutive_packets():
    # A lone saturated sender must wait DIFS + backoff between frames
    # (this is why a single 802.11 sender cannot saturate the channel).
    h = MacHarness(1)
    ends = []
    h.macs[0].add_completion_listener(lambda rep: ends.append(h.sim.now))
    h.saturate(0, depth=3)
    h.run_seconds(0.1)
    assert len(ends) >= 3
    data = frame_airtime_us(PHY, 1500, 11.0)
    ack = ack_airtime_us(PHY, 2.0)
    exchange = data + PHY.sifs_us + ack
    gaps = [b - a - exchange for a, b in zip(ends, ends[1:])]
    # Every gap >= DIFS; and on average clearly larger (backoff slots).
    assert all(gap >= PHY.difs_us - 1e-6 for gap in gaps)
    mean_gap = sum(gaps) / len(gaps)
    assert mean_gap > PHY.difs_us + 2 * PHY.slot_us


def test_two_saturated_senders_share_fairly():
    h = MacHarness(2, seed=3)
    h.saturate(0)
    h.saturate(1)
    h.run_seconds(3.0)
    thr0 = h.throughput_mbps("sta0", 3.0)
    thr1 = h.throughput_mbps("sta1", 3.0)
    assert thr0 + thr1 > 5.5  # near UDP saturation for 11 Mbps
    assert abs(thr0 - thr1) / (thr0 + thr1) < 0.1


def test_collisions_occur_and_are_retried():
    h = MacHarness(2, seed=3)
    h.saturate(0)
    h.saturate(1)
    h.run_seconds(2.0)
    total_attempts = h.macs[0].tx_attempts + h.macs[1].tx_attempts
    total_success = h.macs[0].tx_success + h.macs[1].tx_success
    assert total_attempts > total_success  # some collisions happened
    assert h.macs[0].tx_dropped == 0  # but retries recovered them all
    # Receiver saw no duplicate deliveries.
    seqs = [f.seq for f in h.rx_frames]
    assert len(seqs) == len(set(seqs))


def test_rate_diversity_equalizes_throughput_not_time():
    h = MacHarness(2, rates=[1.0, 11.0], seed=5)
    airtime = {}
    for i, mac in enumerate(h.macs):
        mac.add_completion_listener(
            lambda rep, i=i: airtime.__setitem__(
                i, airtime.get(i, 0.0) + rep.airtime_us
            )
        )
    h.saturate(0)
    h.saturate(1)
    h.run_seconds(3.0)
    thr0 = h.throughput_mbps("sta0", 3.0)
    thr1 = h.throughput_mbps("sta1", 3.0)
    # The anomaly: equal throughputs...
    assert abs(thr0 - thr1) / (thr0 + thr1) < 0.15
    # ...but wildly unequal channel time (paper: ~6.4x).
    assert airtime[0] / airtime[1] > 4.0


def test_retry_limit_drops_frame():
    sim = Simulator(seed=1)
    channel = Channel(sim, PerLinkLoss({("sta", "ap"): 1.0}))
    ap = DcfMac(sim, channel, "ap", PHY)
    ap.attach_scheduler(FifoTxScheduler())
    mac = DcfMac(sim, channel, "sta", PHY, config=MacConfig(max_attempts=4))
    sched = FifoTxScheduler()
    mac.attach_scheduler(sched)
    reports = []
    mac.add_completion_listener(reports.append)
    sched.enqueue(SimplePacket("ap"))
    sim.run(until=us_from_s(1.0))
    assert mac.tx_dropped == 1
    assert mac.tx_attempts == 4
    assert len(reports) == 1
    assert not reports[0].success
    assert reports[0].attempts == 4


def test_cw_doubles_on_retries():
    sim = Simulator(seed=2)
    channel = Channel(sim, PerLinkLoss({("sta", "ap"): 1.0}))
    ap = DcfMac(sim, channel, "ap", PHY)
    ap.attach_scheduler(FifoTxScheduler())
    mac = DcfMac(sim, channel, "sta", PHY, config=MacConfig(max_attempts=3))
    sched = FifoTxScheduler()
    mac.attach_scheduler(sched)
    observed_cw = []
    original = mac._start_backoff

    def spy(*, draw):
        observed_cw.append(mac._cw)
        original(draw=draw)

    mac._start_backoff = spy
    sched.enqueue(SimplePacket("ap"))
    sim.run(until=us_from_s(1.0))
    retry_cws = [cw for cw in observed_cw if cw > PHY.cw_min]
    assert retry_cws[:2] == [63, 127]


def test_exchange_airtime_includes_retries():
    sim = Simulator(seed=3)
    loss = PerLinkLoss({("sta", "ap"): 1.0})
    channel = Channel(sim, loss)
    ap = DcfMac(sim, channel, "ap", PHY)
    ap.attach_scheduler(FifoTxScheduler())
    mac = DcfMac(sim, channel, "sta", PHY, config=MacConfig(max_attempts=3))
    sched = FifoTxScheduler()
    mac.attach_scheduler(sched)
    reports = []
    mac.add_completion_listener(reports.append)
    sched.enqueue(SimplePacket("ap"))
    sim.run(until=us_from_s(1.0))
    data = frame_airtime_us(PHY, 1500, 11.0)
    # 3 attempts, each DIFS + data (no ACK ever arrives).
    assert reports[0].airtime_us == pytest.approx(3 * (PHY.difs_us + data))


def test_duplicate_detection_on_lost_ack():
    # If only the ACK path is broken... we model loss at the data frame,
    # so instead verify dedup directly: two frames with the same seq.
    h = MacHarness(1)
    h.scheds[0].enqueue(SimplePacket("ap", 500))
    h.sim.run()
    assert h.macs[0].tx_success == 1
    before = len(h.rx_frames)
    # Forge a retransmission of the same sequence number.
    from repro.mac.frames import Frame, FrameType

    dup = Frame(FrameType.DATA, "sta0", "ap", 500, 11.0,
                seq=h.rx_frames[0].seq)
    h.channel.transmit(dup, 100.0)
    h.sim.run()
    assert len(h.rx_frames) == before  # not delivered twice
    assert h.ap.rx_duplicates == 1


def test_scheduler_wakeup_after_none():
    """A scheduler may return None (TBR withholding); notify_pending
    must restart transmission later."""

    class GatedScheduler(FifoTxScheduler):
        def __init__(self):
            super().__init__()
            self.gate_open = False

        def dequeue(self):
            if not self.gate_open:
                return None
            return super().dequeue()

    sim = Simulator(seed=1)
    channel = Channel(sim)
    ap = DcfMac(sim, channel, "ap", PHY)
    ap.attach_scheduler(FifoTxScheduler())
    received = []
    ap.rx_handler = received.append
    mac = DcfMac(sim, channel, "sta", PHY)
    sched = GatedScheduler()
    mac.attach_scheduler(sched)
    sched.enqueue(SimplePacket("ap"))
    sim.run(until=us_from_s(0.5))
    assert received == []  # withheld

    def open_gate():
        sched.gate_open = True
        mac.notify_pending()

    sim.schedule(0.0, open_gate)
    sim.run(until=us_from_s(1.0))
    assert len(received) == 1


def test_completion_reports_rates_and_sizes():
    h = MacHarness(1, rates=[5.5])
    reports = []
    h.macs[0].add_completion_listener(reports.append)
    h.scheds[0].enqueue(SimplePacket("ap", 700))
    h.sim.run()
    rep = reports[0]
    assert rep.success
    assert rep.rate_mbps == 5.5
    assert rep.payload_bytes == 700
    assert rep.src == "sta0" and rep.dst == "ap"
    assert rep.attempts == 1


def test_attempt_listener_called_per_attempt():
    sim = Simulator(seed=4)
    channel = Channel(sim, PerLinkLoss({("sta", "ap"): 1.0}))
    ap = DcfMac(sim, channel, "ap", PHY)
    ap.attach_scheduler(FifoTxScheduler())
    mac = DcfMac(sim, channel, "sta", PHY, config=MacConfig(max_attempts=3))
    sched = FifoTxScheduler()
    mac.attach_scheduler(sched)
    attempts = []
    mac.attempt_listener = lambda dst, ok: attempts.append((dst, ok))
    sched.enqueue(SimplePacket("ap"))
    sim.run(until=us_from_s(1.0))
    assert attempts == [("ap", False)] * 3


def test_rate_provider_consulted_per_attempt():
    # The provider is queried at frame load and again per attempt; the
    # first *transmission* goes at 11 and the retry must pick up the
    # provider's new answer (1.0) without a new frame.
    rates_given = []

    def provider(dst):
        rates_given.append(dst)
        return 11.0 if len(rates_given) <= 2 else 1.0

    sim = Simulator(seed=5)
    channel = Channel(sim, PerLinkLoss({("sta", "ap"): 1.0}))
    ap = DcfMac(sim, channel, "ap", PHY)
    ap.attach_scheduler(FifoTxScheduler())
    mac = DcfMac(
        sim, channel, "sta", PHY,
        config=MacConfig(max_attempts=2), rate_provider=provider,
    )
    sniffed = []
    channel.add_sniffer(lambda f, d, c, s, e: sniffed.append(f.rate_mbps))
    sched = FifoTxScheduler()
    mac.attach_scheduler(sched)
    sched.enqueue(SimplePacket("ap"))
    sim.run(until=us_from_s(1.0))
    data_rates = [r for r in sniffed if r != 2.0]  # exclude ACKs
    assert data_rates == [11.0, 1.0]


def test_deterministic_given_seed():
    def run_once():
        h = MacHarness(2, seed=77)
        h.saturate(0)
        h.saturate(1)
        h.run_seconds(1.0)
        return dict(h.rx_bytes), h.macs[0].tx_attempts

    assert run_once() == run_once()


def test_eifs_after_observing_corrupted_frame():
    # A third station that observes a collision must defer EIFS, not
    # DIFS, before its next access.
    h = MacHarness(3, seed=9)
    h.saturate(0)
    h.saturate(1)
    h.saturate(2)
    h.run_seconds(1.0)
    # The run with collisions still makes progress and is loss-free at
    # the transport level (everything retried).
    assert all(m.tx_dropped == 0 for m in h.macs)
    total = sum(h.rx_bytes.values()) * 8.0 / 1e6
    assert total > 5.0


def test_mac_config_validation():
    with pytest.raises(ValueError):
        MacConfig(max_attempts=0)


# ----------------------------------------------------------------------
# the response hold (Channel.reserve_response), seen from the MAC
# ----------------------------------------------------------------------
def _held_after_first_data_frame(eager=False, seed=3):
    """Three saturated stations, stopped 5 us after the AP received its
    first clean data frame: the AP's ACK is pending, the sender waits
    for it and the other two are mid-backoff, frozen.  ``eager`` makes
    the channel deliver every edge (the reference the hold must match)."""
    h = MacHarness(3, seed=seed)
    if eager:
        h.channel.reserve_response = lambda at: None
    for i in range(3):
        h.saturate(i)
    while not h.rx_frames:
        h.sim.run(max_events=1)
    h.sim.run(until=h.sim.now + 5.0)
    sender = h.rx_frames[0].src
    contenders = [mac for mac in h.macs if mac.address != sender]
    assert h.ap._ack_tx_event is not None
    assert all(mac._backoff_active for mac in contenders)
    return h, contenders


def test_hold_leaves_contenders_unarmed_across_the_sifs_gap():
    h, contenders = _held_after_first_data_frame()
    assert (h.channel.busy, h.channel.carrier_busy) == (False, True)
    assert all(mac._bo_event is None for mac in contenders)
    eager, eager_contenders = _held_after_first_data_frame(eager=True)
    assert not eager.channel.carrier_busy
    assert all(mac._bo_event is not None for mac in eager_contenders)
    # What the eager side armed, the ACK freezes with no slot elapsed.
    for side in (h, eager):
        side.sim.run(until=side.sim.now + 10.0)
    assert h.channel.busy and eager.channel.busy
    assert [mac._bo_slots for mac in contenders] == [
        mac._bo_slots for mac in eager_contenders
    ]
    assert all(mac._bo_event is None for mac in eager_contenders)
    assert h.sim._seq < eager.sim._seq


def test_receiver_shutdown_inside_the_hold_strands_nobody():
    expiries = []
    for eager in (False, True):
        h, contenders = _held_after_first_data_frame(eager=eager)
        h.ap.shutdown()
        assert not h.channel.carrier_busy
        assert all(mac._bo_event is not None for mac in contenders)
        expiries.append([
            (mac._bo_event.time, mac._bo_anchor, mac._bo_slots)
            for mac in contenders
        ])
    held, reference = expiries
    assert held == reference


def test_fast_forward_jump_inside_a_hold_resumes_identically():
    from repro.sim.steady import shift_clocks

    delta = 3_000_000.0
    traces = []
    for jump in (0.0, delta):
        h, contenders = _held_after_first_data_frame()
        reserved = h.channel._response_at
        if jump:
            shift_clocks([h.channel, h.ap] + h.macs, jump)
            h.sim.fast_forward_to(h.sim.now + jump)
            assert h.channel._response_at == reserved + jump
            assert h.channel.carrier_busy  # still holding
        trace = []
        h.sim.trace = lambda time, callback, trace=trace, jump=jump: (
            trace.append((time - jump, callback.__qualname__))
        )
        h.sim.run(until=h.sim.now + 50_000.0)
        traces.append((trace, [
            (m._bo_slots, m._cw, m.tx_attempts, m.tx_success) for m in h.macs
        ]))
    (straight, straight_macs), (jumped, jumped_macs) = traces
    assert len(straight) > 100 and straight_macs == jumped_macs
    assert [name for _, name in jumped] == [name for _, name in straight]
    assert [t for t, _ in jumped] == pytest.approx(
        [t for t, _ in straight], abs=1e-6
    )
