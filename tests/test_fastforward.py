"""Steady-state fast-forward: kernel jumps, detector gating, parity.

Three layers of coverage:

* kernel — ``Simulator.fast_forward_to`` shifts pending events, pins
  timeline (category OTHER) events at their absolute times, refuses to
  jump over one, and notifies listeners;
* detector — workloads the engine cannot certify (TCP goldens, churn,
  outages, degrade windows, dense rate switches) take zero jumps and
  render *byte-identically* with the flag on, while the steady-long
  family engages and matches event-by-event results within printed
  precision;
* integration — the sanitizer's unweakened checks pass across
  synthesized jump boundaries, and station *names* never leak into the
  detector's membership logic (a station literally named "steady" is
  load-bearing in the bursty golden).
"""

from collections import Counter

import pytest

from repro.experiments.common import competing_spec
from repro.scenario import build_spec, render_result, run_spec
from repro.scenario.builder import ScenarioRuntime
from repro.scenario.spec import (
    ApOutageEvent,
    ChannelDegradeEvent,
    FlowSpec,
    JoinEvent,
    LeaveEvent,
    RateSwitchEvent,
    ScenarioSpec,
    StationSpec,
)
from repro.sim.event import EventCategory
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.steady import (
    CALIBRATION_US,
    MIN_SKIP_US,
    FastForwardEngine,
    time_state,
)

from tests.conftest import EventLog
from test_scenario_golden import GOLDEN_DIR, GOLDEN_PARAMS


# ----------------------------------------------------------------------
# kernel: fast_forward_to / next_pending
# ----------------------------------------------------------------------
def test_fast_forward_shifts_pending_events():
    sim = Simulator()
    fired = []
    sim.schedule(100.0, fired.append, "mac", category=EventCategory.MAC)
    sim.schedule(250.0, fired.append, "timer", category=EventCategory.TIMER)
    sim.fast_forward_to(1_000.0)
    assert sim.now == 1_000.0
    assert sim.fast_forwards == 1
    assert sim.fast_forwarded_us == 1_000.0
    # Relative spacing survives the jump: the events fire 100 and 250us
    # after the (new) clock, not at their stale absolute times.
    sim.run(until=1_150.0)
    assert fired == ["mac"]
    sim.run(until=1_300.0)
    assert fired == ["mac", "timer"]


def test_fast_forward_pins_timeline_events():
    sim = Simulator()
    fired = []
    sim.schedule(5_000.0, fired.append, "timeline", category=EventCategory.OTHER)
    sim.schedule(100.0, fired.append, "mac", category=EventCategory.MAC)
    sim.fast_forward_to(4_000.0)
    # The OTHER event keeps its absolute time; the MAC event shifted.
    assert sim.next_pending(EventCategory.OTHER) == 5_000.0
    assert sim.next_pending(EventCategory.MAC) == 4_100.0
    sim.run(until=6_000.0)
    assert fired == ["mac", "timeline"]


def test_fast_forward_refuses_to_cross_timeline_events():
    sim = Simulator()
    sim.schedule(500.0, lambda: None, category=EventCategory.OTHER)
    with pytest.raises(SimulationError):
        sim.fast_forward_to(1_000.0)
    # The failed jump left the clock alone.
    assert sim.now == 0.0
    assert sim.fast_forwards == 0


def test_fast_forward_rejects_backwards_and_noops_in_place():
    sim = Simulator()
    sim.schedule(10.0, lambda: None, category=EventCategory.TIMER)
    sim.run(until=5.0)
    with pytest.raises(SimulationError):
        sim.fast_forward_to(1.0)
    sim.fast_forward_to(sim.now)  # zero-length jump is a no-op
    assert sim.fast_forwards == 0


def test_fast_forward_drops_cancelled_entries():
    sim = Simulator()
    keep = sim.schedule(100.0, lambda: None, category=EventCategory.TIMER)
    dead = sim.schedule(200.0, lambda: None, category=EventCategory.TIMER)
    sim.cancel(dead)
    sim.fast_forward_to(1_000.0)
    # The rebuild discarded the corpse: one live entry, zero stale.
    assert sim.pending_count() == 1
    assert sim._stale == 0
    assert keep[0] == 1_100.0


def test_fast_forward_notifies_listeners():
    sim = Simulator()
    log = EventLog(sim)
    sim.schedule(10.0, lambda: None, category=EventCategory.TIMER)
    sim.fast_forward_to(500.0)
    assert log.jumps == [(0.0, 500.0)] and not log.events


def test_fast_forward_inside_run_raises():
    sim = Simulator()
    errors = []

    def jump():
        try:
            sim.fast_forward_to(sim.now + 100.0)
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(10.0, jump)
    sim.run(until=20.0)
    assert len(errors) == 1


def test_next_pending_filters_by_category():
    sim = Simulator()
    sim.schedule(300.0, lambda: None, category=EventCategory.MAC)
    sim.schedule(700.0, lambda: None, category=EventCategory.OTHER)
    cancelled = sim.schedule(50.0, lambda: None, category=EventCategory.MAC)
    sim.cancel(cancelled)
    assert sim.next_pending() == 300.0
    assert sim.next_pending(EventCategory.MAC) == 300.0
    assert sim.next_pending(EventCategory.OTHER) == 700.0
    assert sim.next_pending(EventCategory.PHY) is None


# ----------------------------------------------------------------------
# A/B golden parity: every golden family, flag on vs pinned render
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", sorted(GOLDEN_PARAMS))
def test_golden_families_byte_identical_with_flag_on(family):
    # Every golden family carries at least one TCP flow, so the engine's
    # static gate routes them through plain cell.run() — the flag must
    # be byte-invisible, not merely approximately right.
    result = run_spec(
        build_spec(family, **GOLDEN_PARAMS[family]), fast_forward=True
    )
    assert result.fast_forwards == 0
    rendered = render_result(result) + "\n"
    expected = (GOLDEN_DIR / f"scenario_{family}.txt").read_text()
    assert rendered == expected


# ----------------------------------------------------------------------
# steady-long: the engine engages and matches event-by-event
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def steady_long_ab():
    spec = build_spec("steady-long", seconds=6.0, perturb_every_s=2.5)
    return (
        run_spec(spec, fast_forward=False),
        run_spec(spec, fast_forward=True),
    )


def test_steady_long_actually_jumps(steady_long_ab):
    slow, fast = steady_long_ab
    assert fast.fast_forwards >= 2
    assert fast.fast_forwarded_s > 3.0
    # The point of the exercise: far fewer events executed.
    assert fast.events_executed < slow.events_executed / 2
    # Baseline run must not have jumped.
    assert slow.fast_forwards == 0
    assert slow.fast_forwarded_s == 0.0


def test_steady_long_matches_event_by_event(steady_long_ab):
    slow, fast = steady_long_ab
    assert sorted(fast.throughput_mbps) == sorted(slow.throughput_mbps)
    for name, mbps in slow.throughput_mbps.items():
        assert fast.throughput_mbps[name] == pytest.approx(mbps, rel=0.10)
    for name, occ in slow.occupancy.items():
        assert abs(fast.occupancy[name] - occ) < 0.05
    # Structural outcomes are exact, not approximate: the same timeline
    # fired and every station ends at the same rate.
    assert fast.timeline_fired == slow.timeline_fired
    assert fast.final_rates_mbps == slow.final_rates_mbps
    assert fast.total_mbps == pytest.approx(slow.total_mbps, rel=0.05)


def test_steady_long_fifo_uses_dcf_model():
    # The non-TBR path gates on predict's Eq 4 shares, not Eq 11's.  A
    # shared drop-tail FIFO mixes slowly, so this test stretches the
    # calibration window (the engine's one knob, trading wall-clock for
    # synthesis accuracy) instead of accepting a sloppier tolerance.
    spec = build_spec(
        "steady-long", scheduler="fifo", seconds=5.0, perturb_every_s=10.0
    )
    slow = run_spec(spec, fast_forward=False)
    runtime = ScenarioRuntime(spec, fast_forward=True)
    runtime.ff_engine = FastForwardEngine(
        runtime.campus, calibration_us=1_000_000.0
    )
    runtime.run()
    assert runtime.cell.sim.fast_forwards >= 1
    fast_total = sum(runtime.cell.station_throughputs_mbps().values())
    assert fast_total == pytest.approx(slow.total_mbps, rel=0.10)


@pytest.mark.parametrize("scheduler", ["tbr", "fifo"])
def test_share_model_gate_declines_every_window(scheduler, monkeypatch):
    # At zero tolerance no measured window matches predict's shares
    # exactly, so the model gate (not an earlier one) vetoes every jump
    # that a 12 s steady-long takes at the default tolerance.
    monkeypatch.setattr("repro.sim.steady.SHARE_TOLERANCE", 0.0)
    spec = build_spec("steady-long", scheduler=scheduler, seconds=12.0)
    runtime = ScenarioRuntime(spec, fast_forward=True)
    runtime.run()
    assert runtime.ff_engine.jumps == 0
    assert "share-model" in runtime.ff_engine.declines


@pytest.mark.parametrize("scheduler", ["tbr", "fifo"])
def test_jumped_run_is_pinned_byte_for_byte(scheduler):
    # Everything else in this file compares a run that jumps within a
    # tolerance; this pins one (seed 1, 30 s, two jumps) exactly, so a
    # change to what a jump credits or shifts cannot hide inside 5 %.
    result = run_spec(
        build_spec("steady-long", scheduler=scheduler, seconds=30.0, seed=1),
        fast_forward=True,
    )
    assert result.fast_forwards == 2
    golden = GOLDEN_DIR / f"scenario_steady-long_ff_{scheduler}.txt"
    assert render_result(result) + "\n" == golden.read_text()


def _counter_totals(cell):
    """Every declared counter under ``cell``, summed per ``Class.attr``."""
    totals = Counter()
    for obj, decl in time_state(cell):
        for attr in decl.get("counters", ()):
            value = getattr(obj, attr)
            totals[f"{type(obj).__name__}.{attr}"] += (
                sum(value.values()) if isinstance(value, dict) else value
            )
    return totals


@pytest.mark.parametrize("scheduler", ["tbr", "fifo"])
def test_jump_credits_drop_and_downlink_counters(scheduler):
    # Regression: the planner credited ``wire.delivered`` but neither
    # ``AccessPoint.downlink_packets`` (the same arrivals, counted one
    # hop later) nor the shared FIFO's ``fifo_dropped`` (its per-station
    # queues are always empty), so after a jump they fell an order of
    # magnitude behind the counters they mirror.
    spec = build_spec("steady-long", scheduler=scheduler, seconds=12.0)
    cells = {}
    for fast in (False, True):
        runtime = ScenarioRuntime(spec, fast_forward=fast)
        if fast and scheduler == "fifo":
            # As in test_steady_long_fifo_uses_dcf_model: the shared FIFO
            # mixes slowly, so the FIFO leg gets the 1 s window and the
            # 10 % that test accepts.  (An uncredited counter is off by
            # the skipped fraction, > 80 % here, under either bound.)
            runtime.ff_engine = FastForwardEngine(
                runtime.campus, calibration_us=1_000_000.0
            )
        runtime.run()
        cells[fast] = runtime.cell
    slow, fast = cells[False], cells[True]
    jumps = fast.sim.fast_forwards
    assert jumps >= 1 and slow.sim.fast_forwards == 0
    # Every wire delivery is one AP arrival: the AP's count is a view of
    # the wire's, so a jump cannot round the two apart.
    assert slow.ap.downlink_packets == slow.ap.downlink_wire.delivered
    assert fast.ap.downlink_packets == fast.ap.downlink_wire.delivered
    assert fast.ap.downlink_packets == pytest.approx(
        slow.ap.downlink_packets, rel=0.05
    )
    assert fast.scheduler.dropped() == pytest.approx(
        slow.scheduler.dropped(), rel=0.10
    )
    # And so for every counter any class declares, not three picked by
    # hand: none may describe a different run than the others do.
    slow_totals, fast_totals = _counter_totals(slow), _counter_totals(fast)
    assert set(fast_totals) == set(slow_totals)
    for name, total in slow_totals.items():
        loose = scheduler == "fifo" or "drop" in name or "drain" in name
        assert fast_totals[name] == pytest.approx(
            total, rel=0.10 if loose else 0.05
        ), name
    assert fast.channel.busy_fraction() == pytest.approx(
        slow.channel.busy_fraction(), rel=0.05
    )


def test_jump_keeps_the_busy_fraction():
    # Regression: busy periods are summed when they end, and the jump
    # scaled a window growth that held the frame in flight at the
    # window's start, so a fast-forwarded run read 0.9148 busy against
    # 0.8921 event by event.  ``Channel.busy_us`` counts the open busy
    # period at the snapshot and at the credit alike.
    spec = competing_spec(
        [1.0, 11.0], direction="down", scheduler="tbr", transport="udp",
        udp_rate_mbps=12.0, seconds=12.0, warmup_seconds=2.0, seed=1,
    )
    busy = {}
    for fast in (False, True):
        runtime = ScenarioRuntime(spec, fast_forward=fast)
        runtime.run()
        assert runtime.cell.sim.fast_forwards == (1 if fast else 0)
        busy[fast] = runtime.cell.channel.busy_fraction()
    assert busy[True] == pytest.approx(busy[False], abs=0.01)


# ----------------------------------------------------------------------
# satellite 1: detector keys on identity, never on station names
# ----------------------------------------------------------------------
def _udp_down_spec(name, stations, timeline=(), seconds=4.0, **kwargs):
    flows = tuple(
        FlowSpec(
            station=st.name, kind="udp", direction="down", rate_mbps=8.0
        )
        for st in stations
    )
    return ScenarioSpec(
        name=name,
        scheduler=kwargs.pop("scheduler", "tbr"),
        stations=tuple(stations),
        flows=flows,
        timeline=tuple(timeline),
        seconds=seconds,
        warmup_seconds=kwargs.pop("warmup_seconds", 0.5),
        seed=kwargs.pop("seed", 1),
        **kwargs,
    )


def test_station_named_steady_is_just_another_station():
    # The bursty golden ships a station literally named "steady"; if the
    # detector ever matched on names, this spec would confuse it.  It
    # must engage normally and agree with the event-by-event run.
    spec = _udp_down_spec(
        "steady-name",
        [
            StationSpec("steady", rate_mbps=11.0),
            StationSpec("fast", rate_mbps=5.5),
        ],
    )
    slow = run_spec(spec, fast_forward=False)
    fast = run_spec(spec, fast_forward=True)
    assert fast.fast_forwards >= 1
    assert fast.fast_forwarded_s > 1.0
    for name, mbps in slow.throughput_mbps.items():
        assert fast.throughput_mbps[name] == pytest.approx(mbps, rel=0.10)


# ----------------------------------------------------------------------
# satellite 3: false positives — each disturbance inhibits, and the
# inhibited run is byte-identical to the flag-off run
# ----------------------------------------------------------------------
#: what a window can be declined for when the cell's *structure* moved.
_STRUCTURAL = {"flow-set", "membership", "source-stopped"}
#: what any window next to a timeline event can be declined for.
_LANDMARK = {"too-close-to-landmark", "timeline-in-window"}


def _assert_inhibited_and_identical(spec):
    """Returns the set of reasons the engine gave for declining."""
    slow = run_spec(spec, fast_forward=False)
    fast = run_spec(spec, fast_forward=True)
    assert fast.fast_forwards == 0
    assert fast.fast_forwarded_s == 0.0
    # An inhibited engine run is segmented cell.run() calls — the kernel
    # composition property makes that byte-identical, so compare renders
    # *and* the exact event accounting.
    assert render_result(fast) == render_result(slow)
    assert fast.events_executed == slow.events_executed
    assert fast.events_by_category == slow.events_by_category
    # The same run again, keeping the engine to ask it why: a spec that
    # is inhibited by accident (say, by ``share-model``) must not pass
    # for the wrong reason.
    runtime = ScenarioRuntime(spec, fast_forward=True)
    runtime.run()
    assert runtime.cell.sim.events_executed == slow.events_executed
    declines = runtime.ff_engine.declines
    assert sum(declines.values()) > 0
    return set(declines)


def test_churn_inhibits_fast_forward():
    stations = [StationSpec("base", rate_mbps=11.0)]
    timeline = [
        JoinEvent(
            at_s=1.5,
            station=StationSpec("guest", rate_mbps=2.0),
            flows=(
                FlowSpec(
                    station="guest", kind="udp", direction="down",
                    rate_mbps=4.0,
                ),
            ),
        ),
        LeaveEvent(at_s=2.5, station="guest"),
    ]
    reasons = _assert_inhibited_and_identical(
        _udp_down_spec("ff-churn", stations, timeline, seconds=3.4)
    )
    # The one window far enough from a landmark sees the departed
    # guest's flow, still listed with its source stopped.
    assert reasons & _STRUCTURAL
    assert reasons <= _STRUCTURAL | _LANDMARK


def test_ap_outage_mid_window_inhibits_fast_forward():
    stations = [
        StationSpec("a", rate_mbps=11.0),
        StationSpec("b", rate_mbps=2.0),
    ]
    timeline = [ApOutageEvent(at_s=1.6, duration_s=0.5)]
    reasons = _assert_inhibited_and_identical(
        _udp_down_spec("ff-outage", stations, timeline, seconds=3.2)
    )
    # Recovery re-creates the flows inside a calibration window.
    assert reasons & _STRUCTURAL
    assert reasons <= _STRUCTURAL | _LANDMARK


def test_degrade_windows_inhibit_fast_forward():
    stations = [
        StationSpec("a", rate_mbps=11.0),
        StationSpec("b", rate_mbps=5.5),
    ]
    # Back-to-back loss windows: retries void the clean-channel gate in
    # any window the landmark gate doesn't already veto.
    timeline = [
        ChannelDegradeEvent(at_s=1.0, duration_s=0.8, loss_probability=0.4),
        ChannelDegradeEvent(at_s=2.2, duration_s=0.8, loss_probability=0.4),
    ]
    reasons = _assert_inhibited_and_identical(
        _udp_down_spec("ff-degrade", stations, timeline, seconds=3.4)
    )
    assert reasons <= {"retries"} | _LANDMARK


def test_dense_rate_switches_inhibit_fast_forward():
    stations = [
        StationSpec("mover", rate_mbps=11.0),
        StationSpec("anchor", rate_mbps=5.5),
    ]
    # Switch spacing below calibration + min_skip: no jump window ever
    # opens between consecutive landmarks.
    timeline = [
        RateSwitchEvent(at_s=0.8 + 0.9 * i, station="mover", rate_mbps=rate)
        for i, rate in enumerate((5.5, 2.0, 1.0, 2.0))
    ]
    reasons = _assert_inhibited_and_identical(
        _udp_down_spec("ff-rateswitch", stations, timeline, seconds=4.2)
    )
    assert reasons <= _LANDMARK


def test_tcp_workloads_fall_back_statically():
    # Static ineligibility (any TCP flow) short-circuits before the
    # engine installs anything: the run *is* cell.run().
    spec = ScenarioSpec(
        name="ff-tcp",
        scheduler="tbr",
        stations=(
            StationSpec("up", rate_mbps=11.0),
            StationSpec("down", rate_mbps=5.5),
        ),
        flows=(
            FlowSpec(station="up", kind="tcp", direction="up"),
            FlowSpec(
                station="down", kind="udp", direction="down", rate_mbps=4.0
            ),
        ),
        seconds=3.0,
        warmup_seconds=0.5,
        seed=1,
    )
    slow = run_spec(spec, fast_forward=False)
    fast = run_spec(spec, fast_forward=True)
    assert fast.fast_forwards == 0
    assert render_result(fast) == render_result(slow)
    assert fast.events_by_category == slow.events_by_category
    # A run that never calibrates still says why, once, in the counter
    # the calibration windows use.
    runtime = ScenarioRuntime(spec, fast_forward=True)
    runtime.run()
    assert runtime.ff_engine.declines == {"flow-kind": 1}


# ----------------------------------------------------------------------
# satellite 4: sanitizer and fast-forward together
# ----------------------------------------------------------------------
def test_sanitizer_accepts_synthesized_jumps():
    spec = build_spec("steady-long", seconds=6.0, perturb_every_s=2.5)
    runtime = ScenarioRuntime(spec, sanitize=True, fast_forward=True)
    runtime.run()
    sim = runtime.cell.sim
    assert sim.fast_forwards >= 2
    sanitizer = runtime.sanitizer
    assert sanitizer is not None
    # The boundary check ran at every jump on top of the periodic ones,
    # against the planner's synthesized token state, unweakened.
    assert sanitizer.checks_run > sim.fast_forwards
    assert sanitizer.events_seen > 0
    # And the sanitized fast-forward run agrees with the unsanitized one
    # (the sanitizer observes, never perturbs).
    plain = run_spec(spec, fast_forward=True)
    assert plain.fast_forwards == sim.fast_forwards
    assert plain.throughput_mbps == runtime.cell.station_throughputs_mbps()


def test_sanitizer_env_and_fastfwd_env_compose(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    monkeypatch.setenv("REPRO_FASTFWD", "1")
    spec = build_spec("steady-long", seconds=4.0, perturb_every_s=10.0)
    result = run_spec(spec)  # both knobs default from the environment
    assert result.fast_forwards >= 1
    assert result.pool_leaked == 0


# ----------------------------------------------------------------------
# engine plumbing details
# ----------------------------------------------------------------------
def test_engine_counts_match_kernel_counters():
    spec = build_spec("steady-long", seconds=6.0, perturb_every_s=2.5)
    runtime = ScenarioRuntime(spec, fast_forward=True)
    runtime.run()
    assert runtime.ff_engine is not None
    assert runtime.ff_engine.jumps == runtime.cell.sim.fast_forwards


def test_short_windows_never_jump():
    # A measurement window below calibration + min_skip cannot open a
    # jump window — the structural guarantee behind experiment goldens.
    budget_s = (CALIBRATION_US + MIN_SKIP_US) / 1e6
    spec = _udp_down_spec(
        "ff-short",
        [StationSpec("a", rate_mbps=11.0), StationSpec("b", rate_mbps=2.0)],
        seconds=budget_s * 0.9,
    )
    fast = run_spec(spec, fast_forward=True)
    assert fast.fast_forwards == 0


def test_static_eligibility_requires_udp_downlink_flows():
    eligible = ScenarioRuntime(
        _udp_down_spec(
            "ff-eligible", [StationSpec("a", rate_mbps=11.0)], seconds=1.0
        ),
        fast_forward=True,
    )
    assert FastForwardEngine(eligible.campus)._statically_eligible()
    # No flows at all: nothing to saturate, nothing to synthesize.
    idle = ScenarioRuntime(
        ScenarioSpec(
            name="ff-idle",
            scheduler="tbr",
            stations=(StationSpec("a", rate_mbps=11.0),),
            seconds=1.0,
            seed=1,
        ),
        fast_forward=True,
    )
    assert not FastForwardEngine(idle.campus)._statically_eligible()
