"""ScenarioSpec: validation, content identity, campaign encoding."""

import math
import pickle

import pytest

from repro.campaign.job import freeze, thaw
from repro.core.tbr import TbrConfig
from repro.scenario import (
    FlowSpec,
    JoinEvent,
    LeaveEvent,
    RateSwitchEvent,
    RejoinEvent,
    ScenarioSpec,
    StationSpec,
    TrafficOffEvent,
    TrafficOnEvent,
)


def two_station_spec(**overrides):
    kwargs = dict(
        name="t",
        stations=(
            StationSpec("slow", rate_mbps=1.0),
            StationSpec("fast", rate_mbps=11.0),
        ),
        flows=(
            FlowSpec(station="slow"),
            FlowSpec(station="fast"),
        ),
        seconds=1.0,
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


# ----------------------------------------------------------------------
# content identity
# ----------------------------------------------------------------------
def test_equal_content_means_equal_spec():
    a, b = two_station_spec(), two_station_spec()
    assert a == b
    assert hash(a) == hash(b)
    assert a.digest == b.digest
    assert len({a, b}) == 1


def test_any_knob_changes_the_digest():
    base = two_station_spec()
    assert base != two_station_spec(seed=2)
    assert base != two_station_spec(scheduler="tbr")
    assert base != two_station_spec(seconds=2.0)
    assert base != two_station_spec(
        timeline=(LeaveEvent(at_s=0.5, station="slow"),)
    )


def test_spec_with_tbr_config_hashes_despite_mutable_fields():
    spec = two_station_spec(
        scheduler="tbr", tbr_config=TbrConfig(weights={"fast": 2.0})
    )
    assert isinstance(hash(spec), int)
    assert spec == two_station_spec(
        scheduler="tbr", tbr_config=TbrConfig(weights={"fast": 2.0})
    )


def test_freeze_thaw_roundtrip_preserves_identity():
    spec = two_station_spec(
        scheduler="tbr",
        tbr_config=TbrConfig(notify_clients=True),
        timeline=(
            JoinEvent(
                at_s=0.2,
                station=StationSpec("late", rate_mbps=2.0),
                flows=(FlowSpec(station="late"),),
            ),
            RateSwitchEvent(at_s=0.4, station="fast", rate_mbps=5.5),
            TrafficOffEvent(at_s=0.6, station="slow"),
            TrafficOnEvent(at_s=0.8, station="slow"),
        ),
    )
    thawed = thaw(freeze(spec))
    assert isinstance(thawed, ScenarioSpec)
    assert thawed == spec
    assert thawed.digest == spec.digest


def test_spec_pickles():
    spec = two_station_spec()
    assert pickle.loads(pickle.dumps(spec)) == spec


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def test_validate_accepts_a_full_timeline():
    two_station_spec(
        warmup_seconds=0.5,
        timeline=(
            JoinEvent(at_s=0.3, station=StationSpec("late")),
            RateSwitchEvent(at_s=0.5, station="late", rate_mbps=2.0),
            TrafficOffEvent(at_s=0.7, station="late"),
            TrafficOnEvent(at_s=0.9, station="late"),
            LeaveEvent(at_s=1.1, station="late"),
        ),
    ).validate()


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(name=""), "name"),
        (dict(scheduler="edf"), "scheduler"),
        (dict(seconds=0.0), "seconds"),
        (dict(warmup_seconds=-1.0), "warmup"),
        (
            dict(stations=(StationSpec("a"), StationSpec("a"))),
            "duplicate station",
        ),
        (dict(flows=(FlowSpec(station="ghost"),)), "unknown station"),
        (
            dict(timeline=(LeaveEvent(at_s=0.1, station="ghost"),)),
            "unknown station",
        ),
    ],
)
def test_validate_rejects_bad_shapes(overrides, message):
    kwargs = dict(
        name="t",
        stations=(StationSpec("a"),),
        flows=(FlowSpec(station="a"),),
        seconds=1.0,
    )
    kwargs.update(overrides)
    with pytest.raises(ValueError, match=message):
        ScenarioSpec(**kwargs).validate()


@pytest.mark.parametrize("overrides, message", [
    (dict(seconds=math.inf), "seconds must be a finite number, got inf"),
    (dict(seconds=math.nan), "seconds must be a finite number, got nan"),
    (
        dict(warmup_seconds=math.inf),
        "warmup_seconds must be a finite number, got inf",
    ),
    (
        dict(stations=(StationSpec("slow", rate_mbps=math.nan),)),
        "stations[0].rate_mbps must be a finite number, got nan",
    ),
    (
        dict(timeline=(
            RateSwitchEvent(at_s=-math.inf, station="fast", rate_mbps=2.0),
        )),
        "timeline[0].at_s must be a finite number, got -inf",
    ),
])
def test_validate_rejects_every_non_finite_number(overrides, message):
    """``inf`` and ``nan`` pass each field's own ``<= 0`` check; one
    walk over the whole spec names the first of them."""
    with pytest.raises(ValueError) as err:
        two_station_spec(**overrides).validate()
    assert str(err.value) == message


def test_check_finite_walks_plain_overrides_too():
    from repro.scenario.spec import check_finite

    check_finite({"seconds": 2.0, "axis": [1, 2.5], "name": "x"})
    with pytest.raises(ValueError) as err:
        check_finite({"seconds": 2.0, "axis": [1, math.nan]})
    assert str(err.value) == "axis[1] must be a finite number, got nan"


def test_validate_tracks_timeline_causality():
    # Joining a name that exists is an error...
    with pytest.raises(ValueError, match="already exists"):
        two_station_spec(
            timeline=(JoinEvent(at_s=0.1, station=StationSpec("slow")),)
        ).validate()
    # ...as is leaving twice...
    with pytest.raises(ValueError, match="already left"):
        two_station_spec(
            timeline=(
                LeaveEvent(at_s=0.1, station="slow"),
                LeaveEvent(at_s=0.2, station="slow"),
            )
        ).validate()
    # ...or toggling traffic after departure...
    with pytest.raises(ValueError, match="already left"):
        two_station_spec(
            timeline=(
                LeaveEvent(at_s=0.1, station="slow"),
                TrafficOnEvent(at_s=0.2, station="slow"),
            )
        ).validate()
    # ...or re-rating a departed station...
    with pytest.raises(ValueError, match="already left"):
        two_station_spec(
            timeline=(
                LeaveEvent(at_s=0.1, station="slow"),
                RateSwitchEvent(at_s=0.2, station="slow", rate_mbps=2.0),
            )
        ).validate()
    # ...and a join's flows must belong to the joining station (the
    # builder files them under the joiner for quiesce/burst bookkeeping).
    with pytest.raises(ValueError, match="must belong to the joining"):
        two_station_spec(
            timeline=(
                JoinEvent(
                    at_s=0.2,
                    station=StationSpec("late"),
                    flows=(FlowSpec(station="slow"),),
                ),
            )
        ).validate()
    # Referencing a joined station is fine regardless of tuple order.
    two_station_spec(
        timeline=(
            RateSwitchEvent(at_s=0.5, station="late", rate_mbps=1.0),
            JoinEvent(at_s=0.2, station=StationSpec("late")),
        )
    ).validate()


def test_validate_tracks_rejoin_causality():
    # A full leave -> rejoin -> leave cycle is legal, and events after
    # the rejoin may reference the station again.
    two_station_spec(
        timeline=(
            LeaveEvent(at_s=0.1, station="slow"),
            RejoinEvent(at_s=0.3, station="slow"),
            RateSwitchEvent(at_s=0.5, station="slow", rate_mbps=2.0),
            LeaveEvent(at_s=0.7, station="slow"),
        )
    ).validate()
    # Rejoining a station that never left is an error...
    with pytest.raises(ValueError, match="never left"):
        two_station_spec(
            timeline=(RejoinEvent(at_s=0.1, station="slow"),)
        ).validate()
    # ...as is rejoining an unknown name...
    with pytest.raises(ValueError, match="unknown station"):
        two_station_spec(
            timeline=(RejoinEvent(at_s=0.1, station="ghost"),)
        ).validate()
    # ...or re-joining a departed name via JoinEvent (RejoinEvent is
    # the revival path; the original spec is reused).
    with pytest.raises(ValueError, match="already exists"):
        two_station_spec(
            timeline=(
                LeaveEvent(at_s=0.1, station="slow"),
                JoinEvent(at_s=0.3, station=StationSpec("slow")),
            )
        ).validate()


def test_validate_rejects_foreign_timeline_objects():
    class NotAnEvent:
        at_s = 0.5
        station = "slow"

    with pytest.raises(ValueError, match="unknown timeline event type"):
        two_station_spec(timeline=(NotAnEvent(),)).validate()


def test_rate_switch_rejects_nonpositive_rates():
    with pytest.raises(ValueError, match="positive rate"):
        two_station_spec(
            timeline=(
                RateSwitchEvent(at_s=0.1, station="slow", rate_mbps=0.0),
            )
        ).validate()
    with pytest.raises(ValueError, match="positive downlink rate"):
        two_station_spec(
            timeline=(
                RateSwitchEvent(
                    at_s=0.1, station="slow", rate_mbps=11.0,
                    downlink_rate_mbps=0.0,
                ),
            )
        ).validate()


def test_flow_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        FlowSpec(station="a", kind="sctp").validate()
    with pytest.raises(ValueError, match="direction"):
        FlowSpec(station="a", direction="sideways").validate()
    with pytest.raises(ValueError, match="task_bytes"):
        FlowSpec(station="a", app="task").validate()
    with pytest.raises(ValueError, match="rate"):
        FlowSpec(station="a", kind="udp", rate_mbps=0.0).validate()
