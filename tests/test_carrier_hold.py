"""The response hold: a withheld carrier edge changes no state.

A receiver that owes a SIFS response reserves it
(``Channel.reserve_response``), and its medium and every coupled one
withhold the busy->idle edge of the frame that just ended and the
idle->busy edge of the response.  The contract is that nothing but the
number of heap pushes can tell.  This file holds the hold against the
eager reference — the same build with ``reserve_response`` patched to a
no-op, which exists nowhere but here — at *every* event boundary: time,
callback, each MAC's contention state, each medium's carrier state.
"""

import random
from collections import Counter
from dataclasses import replace

import pytest

from repro.channel.loss import BernoulliLoss
from repro.node.cell import Cell
from repro.scenario import (
    ApOutageEvent,
    RoamEvent,
    StationCrashEvent,
    build_spec,
)
from repro.scenario.builder import ScenarioRuntime


class Probe:
    """``rows``: at every event boundary, before the callback runs —
    ``(time, callback name, per-cell (medium state, per-MAC state))``.
    ``held`` counts, by callback name, the boundaries at which some
    medium was holding."""

    def __init__(self, sim, cells):
        self.rows = []
        self.held = Counter()
        self._cells = cells  # the live container: roams re-populate it
        sim.trace = self._trace

    def _trace(self, time, callback):
        name = getattr(callback, "__qualname__", type(callback).__name__)
        cells = []
        for cell in self._cells:
            channel = cell.channel
            if channel._idle_deferred:
                self.held[name] += 1
            macs = [cell.ap.mac] + [s.mac for s in cell.stations.values()]
            cells.append((
                (channel.busy, channel.busy_start, channel.idle_start,
                 channel._busy_accum, len(channel.active)),
                tuple(
                    (mac.address, mac._bo_slots, mac._cw, mac._use_eifs,
                     mac._backoff_active, mac._attempts, mac.tx_attempts)
                    for mac in macs
                ),
            ))
        self.rows.append((time, name, tuple(cells)))


def _spec_world(spec):
    runtime = ScenarioRuntime(spec, sanitize=False, fast_forward=False)
    campus = runtime.campus
    return campus.sim, campus.cells.values(), runtime.run


def _check_world(make_world):
    """Build the world twice, run it with the hold and eagerly, and hold
    the two to each other; returns the hold side's ``held`` counter."""
    sides = []
    for eager in (False, True):
        sim, cells, run = make_world()
        if eager:
            for cell in cells:
                cell.channel.reserve_response = lambda at: None
        probe = Probe(sim, cells)
        run()
        sides.append((sim, probe))
    (hold_sim, hold), (eager_sim, eager) = sides
    for n, (mine, reference) in enumerate(zip(hold.rows, eager.rows)):
        assert mine == reference, f"first divergence at event {n}"
    assert len(hold.rows) == len(eager.rows) == hold_sim.events_executed
    assert hold_sim.events_executed == eager_sim.events_executed
    assert hold_sim.events_by_category() == eager_sim.events_by_category()
    # Not vacuous: the hold side held, the reference never did, and the
    # withheld edges are arms that were never pushed.
    assert hold.held and not eager.held
    assert hold_sim._seq < eager_sim._seq
    return hold.held


def _check(spec):
    return _check_world(lambda: _spec_world(spec))


# ----------------------------------------------------------------------
# coupled campuses: the hold propagates to co-channel neighbours
# ----------------------------------------------------------------------
def test_co_channel_pair():
    _check(build_spec("campus", seconds=0.8, warmup_s=0.2, n_channels=1))


def test_hidden_terminal_chain():
    # 7 cells on the 1/6/11 plan: cell i hears i±3 only, so c0 and c6
    # are hidden from each other and both interfere with c3.
    _check(build_spec(
        "campus", n_cells=7, n_channels=3, n_roamers=2,
        seconds=0.5, warmup_s=0.2,
    ))


@pytest.mark.parametrize("scheduler", ["tbr", "fifo", "drr"])
def test_mixed_cell(scheduler):
    _check(build_spec(
        "mixed", scheduler=scheduler, seconds=0.8, warmup_s=0.2,
    ))


# ----------------------------------------------------------------------
# a reserved response that is never sent: the cancel path
# ----------------------------------------------------------------------
def _ack_start(spec, address, after_s):
    """When the first MAC ACK that ``address`` sends after ``after_s``
    goes on the air (us), found by running ``spec`` once."""
    sim, _, run = _spec_world(spec)
    found = []

    def trace(time, callback):
        if (
            not found
            and time > after_s * 1e6
            and getattr(callback, "__name__", "") == "_send_ack"
            and callback.__self__.address == address
        ):
            found.append(time)

    sim.trace = trace
    run()
    return found[0]


def _mid_sifs_s(ack_start_us):
    """A time inside the SIFS gap before that ACK, in seconds."""
    return (ack_start_us - 5.0) / 1e6


def _chaos_spec():
    # Four TCP uploaders (contenders mid-backoff at any instant), two of
    # them also receiving downlink UDP (so they owe MAC ACKs).
    return build_spec("chaos", seconds=1.0, warmup_s=0.2, n_events=0)


def test_station_crash_with_its_ack_pending():
    spec = _chaos_spec()
    at_s = _mid_sifs_s(_ack_start(spec, "s3", 0.5))
    held = _check(replace(spec, timeline=(StationCrashEvent(at_s, "s3"),)))
    # The crash found the medium holding.
    assert held["ScenarioRuntime._fire"] == 1


def test_ap_outage_with_its_ack_pending():
    spec = _chaos_spec()
    at_s = _mid_sifs_s(_ack_start(spec, "ap", 0.5))
    held = _check(replace(spec, timeline=(
        ApOutageEvent(at_s, duration_s=0.2, rejoin_jitter_s=0.05),
    )))
    assert held["ScenarioRuntime._fire"] == 1


def test_roam_leaves_and_lands_inside_a_hold():
    # The roamer departs with its own ACK pending (its co-channel
    # neighbours are holding for it) and lands in the SIFS gap of an
    # exchange of its new cell.
    spec = build_spec(
        "campus", n_cells=4, n_channels=1, n_roamers=1,
        seconds=0.8, warmup_s=0.2,
    )
    out_s = _mid_sifs_s(_ack_start(spec, "roam1", 0.4))

    def roam(delay_s):
        return replace(spec, timeline=(
            RoamEvent(out_s, "roam1", "c0", "c1", delay_s=delay_s),
        ))

    land_s = _mid_sifs_s(_ack_start(roam(0.5), "ap@c1", out_s + 0.05))
    held = _check(roam(land_s - out_s))
    assert held["ScenarioRuntime._fire"] >= 1  # c0, at the departure
    assert held["ScenarioRuntime._rejoin"] >= 1  # c1, at the landing


# ----------------------------------------------------------------------
# frames lost at the destination: no response, so no reservation
# ----------------------------------------------------------------------
def test_lossy_cell():
    def world():
        cell = Cell(
            seed=4, scheduler="tbr",
            loss_model=BernoulliLoss(0.2, random.Random(9)),
        )
        for i, mbps in enumerate((1.0, 5.5, 11.0)):
            cell.add_station(f"n{i + 1}", rate_mbps=mbps)
        cell.tcp_flow(cell.stations["n1"], direction="up")
        cell.tcp_flow(cell.stations["n2"], direction="up")
        cell.udp_flow(cell.stations["n3"], direction="down", rate_mbps=4.0)
        return cell.sim, [cell], lambda: cell.sim.run(until=800_000.0)

    _check_world(world)
