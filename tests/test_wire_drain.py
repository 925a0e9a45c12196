"""The wire pump's drain: unobservable tail drops cost no kernel event.

``WiredLink._pump_deliver`` accounts, inline, every demand arrival that
would leave the pipe strictly before ``Simulator.next_time()`` and that
the AP queue refuses right now.  The contract is that nothing but the
``traffic`` event count can tell: this file holds the drain against the
``UdpSender`` two-event reference (a timer event per packet, a wire
event per packet, no pump at all) at every point where anything could
look — each non-traffic event boundary, each admitted packet, each
``run(until=T)`` return.
"""

import random

import pytest

from repro.node.cell import Cell
from repro.scenario import build_spec
from repro.scenario.builder import ScenarioRuntime
from repro.sim import EventCategory, Simulator
from repro.transport.udp import UdpSender
from repro.transport.wired import Pacing, WiredLink

from test_transport_traffic import legacy_udp_down

#: Callbacks that exist on only one side of the comparison (or, for
#: plain ``_deliver``, fire between the boundaries that matter).
_TRAFFIC_FUNCS = (
    WiredLink._pump_deliver, WiredLink._deliver, UdpSender._fire,
)


class Probe:
    """Records what an observer inside the simulation could see.

    ``boundaries``: at every non-traffic event, the time, the callback
    and the four drop-path counters of every cell *before* it runs.
    ``admitted``: per packet the AP queue accepted, ``(station, seq,
    ts, enqueue time)``.
    """

    def __init__(self, *cells):
        self.cells = cells
        self.boundaries = []
        self.admitted = []
        #: kernel events that delivered something out of a downlink wire
        #: (pump deliveries, plus plain sends such as TCP segments).
        self.wire_events = 0
        self.events_seen = 0
        self._wires = [cell.ap.downlink_wire for cell in cells]
        for cell in cells:
            self._tap_enqueue(cell)
        cells[0].sim.observe(self)

    def counters(self):
        return tuple(
            (
                cell.ap.downlink_wire.delivered,
                cell.ap.downlink_packets,
                cell.scheduler.dropped(),
                cell.scheduler.refused_departed,
            )
            for cell in self.cells
        )

    def _tap_enqueue(self, cell):
        enqueue = cell.scheduler.enqueue
        sim = cell.sim

        def tapped(packet):
            ok = enqueue(packet)
            if ok:
                payload = packet.payload
                self.admitted.append((
                    packet.station,
                    getattr(payload, "seq", None),
                    getattr(payload, "ts_us", None),
                    sim.now,
                ))
            return ok

        cell.scheduler.enqueue = tapped

    def on_fast_forward(self, old_now, new_now):
        raise AssertionError("these runs never jump")

    def on_event(self, time, callback):
        self.events_seen += 1
        func = getattr(callback, "__func__", None)
        if func in _TRAFFIC_FUNCS:
            if callback.__self__ in self._wires:
                self.wire_events += 1
            return
        name = getattr(callback, "__name__", type(callback).__name__)
        self.boundaries.append((time, name, self.counters()))


def _senders(cell, fused, rate_mbps):
    if fused:
        return [
            cell.udp_flow(s, direction="down", rate_mbps=rate_mbps).sender
            for s in cell.stations.values()
        ]
    return [
        legacy_udp_down(cell, s, rate_mbps=rate_mbps)[0]
        for s in cell.stations.values()
    ]


def _saturated_pair(scheduler, *, seed=7, rate_mbps=6.0, perturb=None):
    """Two identical saturated cells, drained (fused) and reference, as
    ``(cells, senders, probe)`` sides (``cells`` a 1-tuple here)."""
    sides = []
    for fused in (True, False):
        cell = Cell(seed=seed, scheduler=scheduler)
        for i, mbps in enumerate((1.0, 5.5, 11.0)):
            cell.add_station(f"n{i + 1}", rate_mbps=mbps)
        senders = _senders(cell, fused, rate_mbps)
        if perturb is not None:
            perturb(cell, senders)
        sides.append(((cell,), senders, Probe(cell)))
    return sides


def _at(cell, at_us, fn, *args):
    cell.sim.schedule_at(at_us, fn, *args, category=EventCategory.OTHER)


def _run_and_flush(sides, until_us):
    """Run both sides, then stop every source and let the pipe empty so
    ``sent`` (which the pump runs ahead of the clock) is comparable."""
    for cells, senders, _ in sides:
        sim = cells[0].sim
        sim.run(until=until_us)
        for sender in senders:
            sender.stop()
        sim.run(until=until_us + 50_000.0)


def _assert_sides_equal(sides):
    (f_cells, f_senders, fused), (r_cells, r_senders, ref) = sides
    assert fused.admitted == ref.admitted
    assert fused.boundaries == ref.boundaries
    assert fused.counters() == ref.counters()
    assert [s.sent for s in f_senders] == [s.sent for s in r_senders]
    for f_cell, r_cell in zip(f_cells, r_cells):
        assert f_cell.occupancy_fractions() == r_cell.occupancy_fractions()
    # The comparison is not vacuous: every pump drained, and saved events.
    links = [cell.ap.downlink_wire for cell in f_cells]
    assert all(link.drained > 0 for link in links)
    assert fused.wire_events + sum(link.drained for link in links) == sum(
        link.delivered for link in links
    )
    assert f_cells[0].sim.events_executed < r_cells[0].sim.events_executed


SCHEDULERS = ["tbr", "fifo", "drr"]


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_drain_matches_two_event_reference(scheduler):
    sides = _saturated_pair(scheduler)
    _run_and_flush(sides, 1_500_000.0)
    _assert_sides_equal(sides)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_drain_with_plain_sends_on_the_same_pipe(scheduler):
    """TCP data (downlink flow) and TCP ACKs (uplink flow) are plain
    ``send``s interleaved with the pump on the downlink wire."""

    def perturb(cell, senders):
        cell.tcp_flow(cell.stations["n3"], direction="down")
        cell.tcp_flow(cell.stations["n2"], direction="up")

    sides = _saturated_pair(scheduler, perturb=perturb)
    _run_and_flush(sides, 1_500_000.0)
    _assert_sides_equal(sides)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_drain_with_a_source_stopped_mid_run(scheduler):
    def perturb(cell, senders):
        _at(cell, 400_123.0, senders[0].stop)
        _at(cell, 700_321.0, senders[2].stop)

    sides = _saturated_pair(scheduler, perturb=perturb)
    _run_and_flush(sides, 1_200_000.0)
    _assert_sides_equal(sides)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_drain_through_an_ap_outage(scheduler):
    """The AP's MAC is down for a second with its queues full: nothing
    dequeues, so (bar TBR's timers) the whole stretch is one drain."""

    def perturb(cell, senders):
        _at(cell, 300_000.0, cell.ap.outage_begin)
        _at(cell, 1_300_000.0, cell.ap.outage_end)

    sides = _saturated_pair(scheduler, perturb=perturb)
    _run_and_flush(sides, 1_800_000.0)
    _assert_sides_equal(sides)
    fused_cell = sides[0][0][0]
    if scheduler != "tbr":
        # ~1 s of 3 x 6 Mbps offered into full queues, almost all of it
        # accounted by a handful of drains.
        assert fused_cell.ap.downlink_wire.drained > 1200


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_drain_counts_refusals_for_a_departed_station(scheduler):
    """A disassociated station's arrivals take the ``refused_departed``
    path (no queue to be full); re-association reopens it."""

    def perturb(cell, senders):
        _at(cell, 300_000.0, cell.scheduler.disassociate, "n2")
        _at(cell, 900_000.0, cell.ap.associate, "n2")

    sides = _saturated_pair(scheduler, perturb=perturb)
    _run_and_flush(sides, 1_400_000.0)
    _assert_sides_equal(sides)
    assert sides[0][0][0].scheduler.refused_departed > 100


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_two_pumps_on_one_kernel(scheduler):
    """Each pump's drain is bounded by the *kernel's* next event, which
    may belong to the other cell."""
    sides = []
    for fused in (True, False):
        sim = Simulator(seed=5)
        cells, senders = [], []
        for tag, rates in (("a", (1.0, 11.0)), ("b", (2.0, 5.5, 11.0))):
            cell = Cell(scheduler=scheduler, sim=sim, ap_address=f"ap-{tag}")
            for i, mbps in enumerate(rates):
                cell.add_station(f"{tag}{i + 1}", rate_mbps=mbps)
            senders += _senders(cell, fused, 7.0)
            cells.append(cell)
        sides.append((cells, senders, Probe(*cells)))
    _run_and_flush(sides, 1_000_000.0)
    _assert_sides_equal(sides)


def test_reset_mid_drain_keeps_the_accounting_identity():
    """``reset()`` rebases in-flight folds (so timing is not comparable
    with the reference), but it must zero ``drained`` with ``delivered``
    and leave every arrival either delivered or pending."""
    cell = Cell(seed=3, scheduler="fifo")
    for i, mbps in enumerate((1.0, 11.0)):
        cell.add_station(f"n{i + 1}", rate_mbps=mbps)
    senders = _senders(cell, True, 8.0)
    probe = Probe(cell)
    link = cell.ap.downlink_wire
    cell.sim.run(until=600_000.0)
    assert link.drained > 0
    sent_before = sum(s.sent for s in senders)
    assert sent_before == link.delivered + len(link._folded)
    link.reset()
    assert (link.delivered, link.drained) == (0, 0)
    probe.wire_events = 0
    downlink_before = cell.ap.downlink_packets
    cell.sim.run(until=1_200_000.0)
    assert link.drained > 0
    assert probe.wire_events + link.drained == link.delivered
    assert cell.ap.downlink_packets - downlink_before == link.delivered
    assert (
        sum(s.sent for s in senders) - sent_before
        == link.delivered + len(link._folded) - 1
    )  # the -1: one fold was pending (already counted in sent) at reset


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("seed", [11, 12])
def test_run_until_horizon_bounds_the_drain(scheduler, seed):
    """``run(until=T)`` with ``T`` falling between arrivals: whatever
    the caller reads after each return equals the reference — the drain
    never accounts an arrival delivering at or after the horizon, even
    with the AP down and no other event to bound it."""
    sides = _saturated_pair(
        scheduler,
        seed=seed,
        perturb=lambda cell, senders: (
            _at(cell, 500_000.0, cell.ap.outage_begin),
            _at(cell, 900_000.0, cell.ap.outage_end),
        ),
    )
    rng = random.Random(seed)
    horizons, t = [], 0.0
    while t < 1_200_000.0:
        t += rng.choice((37.0, 411.0, 2_903.0, 17_777.0, 61_001.0)) * (
            0.5 + rng.random()
        )
        horizons.append(t)
    ((f_cell,), _, fused), ((r_cell,), _, ref) = sides
    for until in horizons:
        f_cell.sim.run(until=until)
        r_cell.sim.run(until=until)
        assert fused.counters() == ref.counters(), until
    assert fused.admitted == ref.admitted
    assert f_cell.ap.downlink_wire.drained > 0


# ----------------------------------------------------------------------
# link-level units: ties, the unbounded case
# ----------------------------------------------------------------------
class Refused(Pacing):
    """Scripted demand source whose consumer refuses every arrival: a
    pacing record firing every ``period_us``, from ``period_us`` on.

    The pump asks ``refuse()`` first and never delivers a refused
    arrival, so the arrivals that cost a kernel event are counted by a
    kernel observer, and ``refused`` counts the refusals the drain made
    inline: every ``refuse()`` call but the one per pump event.
    """

    def __init__(self, sim, period_us, stop_us=None):
        super().__init__(period_us, period_us, 100, stop_us=stop_us)
        self.observed = []  # arrival times that cost a kernel event
        self.asked = 0
        sim.observe(self)

    def on_event(self, time, callback):
        if getattr(callback, "__func__", None) is WiredLink._pump_deliver:
            self.observed.append(time)

    def on_fast_forward(self, old_now, new_now):
        raise AssertionError("no jump in a link-level test")

    @property
    def refused(self):
        return self.asked - len(self.observed)

    def deliver(self, seq, fire_us):
        raise AssertionError("a refused arrival was delivered")

    def refuse(self):
        self.asked += 1
        return True


class FiniteRefused(Refused):
    """``Refused`` that runs dry after ``count`` arrivals."""

    def __init__(self, sim, period_us, count):
        super().__init__(sim, period_us, stop_us=(count + 0.5) * period_us)


def test_no_horizon_drains_a_finite_source_inline():
    # Nothing else pending and no horizon: nothing can act before the
    # source runs dry, so all but the lead-in arrival drain.
    sim = Simulator(seed=0)
    link = WiredLink(sim, delay_us=0.0, rate_mbps=0.0)
    source = FiniteRefused(sim, 100.0, 5)
    link.attach_source(source)
    assert sim.run() == 100.0
    assert sim.events_executed == 1 and source.observed == [100.0]
    assert (link.drained, link.delivered, source.refused) == (4, 5, 4)


def test_exact_time_tie_is_not_drained():
    sim = Simulator(seed=0)
    link = WiredLink(sim, delay_us=0.0, rate_mbps=0.0)
    source = Refused(sim, 100.0)
    seen = []
    sim.schedule_at(300.0, lambda: seen.append((link.drained, link.delivered)))
    link.attach_source(source)
    sim.run(until=650.0)
    # 100 is the pump's lead-in event; 200 lies strictly before the
    # other event and drains; 300 ties with it and gets its own event
    # (after which 400..600 drain up to the horizon, 700 is pending).
    assert source.observed == [100.0, 300.0]
    assert seen == [(1, 2)]  # at the tie, only 100 and 200 are in
    assert (link.drained, link.delivered) == (4, 6)
    assert len(link._folded) == 1


# ----------------------------------------------------------------------
# observability: the successor of "one event per offered packet"
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheduler", ["tbr", "fifo"])
def test_pump_events_plus_drained_is_delivered_on_steady_long(scheduler):
    spec = build_spec("steady-long", scheduler=scheduler, seconds=3.0)
    runtime = ScenarioRuntime(spec, fast_forward=False)
    probe = Probe(runtime.cell)
    runtime.run()
    sim = runtime.cell.sim
    link = runtime.cell.ap.downlink_wire
    assert link.drained > link.delivered // 2  # most offered load is drops
    assert probe.wire_events + link.drained == link.delivered
    assert runtime.cell.ap.downlink_packets == link.delivered
    # Drained arrivals are invisible to an observer, and nothing else
    # is: it still sees exactly one call per executed event.
    assert probe.events_seen == sim.events_executed
    assert probe.wire_events == sim.events_by_category()["traffic"]
