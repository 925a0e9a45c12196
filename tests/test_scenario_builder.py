"""Builder semantics: timelines actually change the running cell."""

import typing

import pytest

from repro.campus import CampusSanitizer
from repro.scenario import (
    ChannelDegradeEvent,
    FlowSpec,
    JoinEvent,
    LeaveEvent,
    RateSwitchEvent,
    ReaperSpec,
    ScenarioRuntime,
    ScenarioSpec,
    StationCrashEvent,
    StationSpec,
    TimelineEvent,
    TrafficOffEvent,
    TrafficOnEvent,
    build_spec,
    run_spec,
)


def make_spec(**overrides):
    kwargs = dict(
        name="t",
        stations=(StationSpec("a", rate_mbps=11.0),),
        flows=(FlowSpec(station="a", kind="udp", direction="down",
                        rate_mbps=6.0),),
        seconds=1.0,
        seed=1,
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


def test_join_adds_a_station_mid_run():
    spec = make_spec(
        timeline=(
            JoinEvent(
                at_s=0.4,
                station=StationSpec("late", rate_mbps=1.0),
                flows=(FlowSpec(station="late", kind="udp",
                                direction="down", rate_mbps=6.0),),
            ),
        ),
    )
    runtime = ScenarioRuntime(spec)
    assert "late" not in runtime.cell.stations
    runtime.run()
    assert "late" in runtime.cell.stations
    assert runtime.timeline_fired == 1
    thr = runtime.cell.station_throughputs_mbps()
    assert thr["late"] > 0.0
    # The latecomer had ~60% of the window; the incumbent got more.
    assert thr["a"] > thr["late"]


def test_leave_quiesces_traffic():
    half = run_spec(
        make_spec(timeline=(LeaveEvent(at_s=0.5, station="a"),))
    )
    full = run_spec(make_spec())
    assert half.timeline_fired == 1
    assert 0.0 < half.throughput_mbps["a"] < 0.7 * full.throughput_mbps["a"]


def test_leave_truly_disassociates_the_station():
    spec = make_spec(
        flows=(FlowSpec(station="a", kind="tcp", direction="up"),),
        timeline=(LeaveEvent(at_s=0.5, station="a"),),
    )
    runtime = ScenarioRuntime(spec)
    runtime.run()
    cell = runtime.cell
    handle = cell.flows[0]
    # The application was clamped before teardown: nothing new offered.
    assert handle.sender.app_limit == handle.sender.snd_nxt
    # ...and the station is gone from every layer: cell, AP scheduler,
    # channel.  (In-flight data is abandoned, not drained — a vanished
    # laptop cannot ACK.)
    assert "a" not in cell.stations
    assert not cell.scheduler.is_associated("a")
    assert cell.scheduler.backlog("a") == 0
    assert all(lis.address != "a" for lis in cell.channel.listeners)


def test_rejoin_revives_the_station_with_fresh_flows():
    from repro.scenario import RejoinEvent

    spec = make_spec(
        seconds=1.5,
        timeline=(
            LeaveEvent(at_s=0.5, station="a"),
            RejoinEvent(at_s=1.0, station="a"),
        ),
    )
    first = run_spec(spec)
    assert first.timeline_fired == 2
    # The restart runs under its own @r1 identity and actually delivers.
    assert sorted(first.flow_throughput_mbps) == [
        "a/udp-down", "a/udp-down@r1",
    ]
    assert first.flow_throughput_mbps["a/udp-down@r1"] > 0.0
    # The rejoined station is fully associated again...
    runtime = ScenarioRuntime(spec)
    runtime.run()
    assert "a" in runtime.cell.stations
    assert runtime.cell.scheduler.is_associated("a")
    # ...and the leave/rejoin cycle is deterministic end to end.
    second = run_spec(spec)
    assert first.throughput_mbps == second.throughput_mbps
    assert first.events_executed == second.events_executed
    assert first.events_by_category == second.events_by_category


def test_rate_switch_changes_both_directions():
    spec = make_spec(
        timeline=(RateSwitchEvent(at_s=0.5, station="a", rate_mbps=1.0),),
    )
    runtime = ScenarioRuntime(spec)
    runtime.run()
    assert runtime.station_rates_mbps() == {"a": 1.0}
    assert runtime.cell.ap.rate_controller.rate_for("a") == 1.0


def test_rate_switch_slows_goodput():
    fast = run_spec(make_spec(seconds=2.0))
    switched = run_spec(
        make_spec(
            seconds=2.0,
            timeline=(
                RateSwitchEvent(at_s=0.2, station="a", rate_mbps=1.0),
            ),
        )
    )
    assert switched.throughput_mbps["a"] < 0.5 * fast.throughput_mbps["a"]


def test_traffic_off_on_creates_fresh_burst_flows():
    spec = make_spec(
        seconds=1.5,
        timeline=(
            TrafficOffEvent(at_s=0.5, station="a"),
            TrafficOnEvent(at_s=1.0, station="a"),
        ),
    )
    result = run_spec(spec)
    assert result.timeline_fired == 2
    names = sorted(result.flow_throughput_mbps)
    assert names == ["a/udp-down", "a/udp-down@1"]
    assert result.flow_throughput_mbps["a/udp-down@1"] > 0.0


def test_traffic_on_after_leave_is_a_noop():
    # validate() rejects this statically, so drive the runtime directly.
    spec = make_spec()
    runtime = ScenarioRuntime(spec)
    runtime._fire(LeaveEvent(at_s=0.0, station="a"))
    runtime._fire(TrafficOnEvent(at_s=0.1, station="a"))
    assert runtime._active["a"] == []


def test_rate_switch_requires_fixed_rate_controller():
    from repro.node.rate_control import ArfController

    spec = make_spec()
    runtime = ScenarioRuntime(spec)
    runtime.cell.stations["a"].rate_controller = ArfController()
    with pytest.raises(TypeError, match="FixedRate"):
        runtime._fire(RateSwitchEvent(at_s=0.0, station="a", rate_mbps=1.0))


def test_same_spec_reproduces_identical_results():
    spec = make_spec(
        seconds=1.5,
        stations=(
            StationSpec("a", rate_mbps=11.0),
            StationSpec("b", rate_mbps=1.0),
        ),
        flows=(
            FlowSpec(station="a", kind="udp", direction="down",
                     rate_mbps=6.0),
            FlowSpec(station="b", kind="tcp", direction="up"),
        ),
        timeline=(
            TrafficOffEvent(at_s=0.5, station="a"),
            TrafficOnEvent(at_s=0.9, station="a"),
            RateSwitchEvent(at_s=1.1, station="b", rate_mbps=5.5),
        ),
    )
    first, second = run_spec(spec), run_spec(spec)
    assert first.throughput_mbps == second.throughput_mbps
    assert first.occupancy == second.occupancy
    assert first.events_executed == second.events_executed
    assert first.events_by_category == second.events_by_category


def test_builder_validates_on_construction():
    with pytest.raises(ValueError, match="unknown station"):
        ScenarioRuntime(make_spec(flows=(FlowSpec(station="ghost"),)))


def test_duplicate_flows_get_distinct_names_and_all_count():
    spec = make_spec(
        flows=(
            FlowSpec(station="a", kind="udp", direction="down",
                     rate_mbps=2.0),
            FlowSpec(station="a", kind="udp", direction="down",
                     rate_mbps=2.0),
        ),
    )
    result = run_spec(spec)
    assert sorted(result.flow_throughput_mbps) == [
        "a/udp-down", "a/udp-down#2",
    ]
    # Both flows deliver, and the per-flow view sums to the station's.
    assert all(v > 0 for v in result.flow_throughput_mbps.values())
    assert sum(result.flow_throughput_mbps.values()) == pytest.approx(
        result.throughput_mbps["a"]
    )


def test_duplicate_burst_flows_stay_distinct():
    spec = make_spec(
        seconds=1.5,
        flows=(
            FlowSpec(station="a", kind="udp", direction="down",
                     rate_mbps=2.0),
            FlowSpec(station="a", kind="udp", direction="down",
                     rate_mbps=2.0),
        ),
        timeline=(
            TrafficOffEvent(at_s=0.5, station="a"),
            TrafficOnEvent(at_s=0.8, station="a"),
        ),
    )
    result = run_spec(spec)
    assert sorted(result.flow_throughput_mbps) == [
        "a/udp-down", "a/udp-down#2",
        "a/udp-down#2@1", "a/udp-down@1",
    ]


def test_timeline_events_count_as_other_category():
    result = run_spec(
        make_spec(timeline=(TrafficOffEvent(at_s=0.5, station="a"),))
    )
    assert result.events_by_category["other"] == 1


# ----------------------------------------------------------------------
# one compiler: plain and campus specs, every event kind, one membership
# ----------------------------------------------------------------------
def test_build_compiles_a_campus_spec():
    runtime = ScenarioRuntime(build_spec("campus", seconds=1.0, warmup_s=0.2))
    assert len(runtime.campus.cells) == 2
    assert all(cell.stations for cell in runtime.campus.cells.values())
    runtime.run()
    assert runtime.roams_fired == 2


def test_fire_handles_every_timeline_event_kind():
    assert set(ScenarioRuntime._HANDLERS) == set(
        typing.get_args(TimelineEvent)
    )


def _two_station_spec(name, **overrides):
    return make_spec(
        name=name,
        scheduler="tbr",
        stations=(
            StationSpec("a", rate_mbps=11.0),
            StationSpec("far", rate_mbps=11.0),
        ),
        flows=tuple(
            FlowSpec(station=station, kind="udp", direction="down",
                     rate_mbps=2.0)
            for station in ("a", "far")
        ),
        **overrides,
    )


#: ``far`` crashes and nothing ever reaps it: only the crash itself can
#: take it off the map.
UNREAPED_CRASH = _two_station_spec(
    "unreaped-crash",
    timeline=(StationCrashEvent(at_s=0.5, station="far"),),
)
#: ``far`` stays alive behind a link that loses everything, so the
#: reaper tears down a station the builder never saw leave.
HOPELESS_LINK = _two_station_spec(
    "hopeless-link",
    timeline=(
        ChannelDegradeEvent(
            at_s=0.5, duration_s=2.0, loss_probability=1.0, station="far",
        ),
    ),
    seconds=3.0,
    reaper=ReaperSpec(exhaustion_threshold=2, idle_timeout_s=0.4),
)


@pytest.mark.parametrize(
    "spec, reaped",
    [
        # crash + reap, outage recovery, leave/rejoin, in one timeline
        (build_spec("chaos", seed=5, seconds=4.0), 1),
        (build_spec("fairness-outage", seconds=3.0, warmup_s=0.5,
                    outage_s=0.5), None),
        (build_spec("fairness-churn", seconds=2.4, warmup_s=0.5), None),
        (UNREAPED_CRASH, None),
        (HOPELESS_LINK, 1),
    ],
    ids=lambda value: getattr(value, "name", None),
)
def test_membership_map_names_exactly_the_associated_stations(spec, reaped):
    # Crash and reap pop ``cell.stations`` inside the cell, behind the
    # campus's back; the one-cell world must still satisfy the campus
    # invariants (single membership, map and station tables agree).
    runtime = ScenarioRuntime(spec)
    runtime.run()
    campus = runtime.campus
    if reaped is not None:
        assert runtime.cell.ap.reaper.reap_count == reaped
    assert set(campus.membership) == set(runtime.cell.stations)
    CampusSanitizer(campus)._check_campus(campus.sim.now)
