"""Campus core: topology, co-channel coupling, membership, spec rules.

The ESS layer's ground truth: cells on one shared kernel, media coupled
only when an adjacent pair shares an RF channel, every station a member
of exactly one cell, and the campus spec section rejecting the
configurations the runtime could never honour (duplicate stations
across cells, roams out of the wrong cell, events aimed at a station
mid-handoff).
"""

import pytest

from repro.campus import Campus, CampusSanitizer
from repro.scenario.spec import (
    CampusSpec,
    CellSpec,
    FlowSpec,
    LeaveEvent,
    RoamEvent,
    ScenarioSpec,
    StationSpec,
)
from repro.sim.sanitizer import InvariantViolation


def _two_cell_campus(
    *, channels=(1, 1), scheduler="fifo", seed=1
) -> Campus:
    campus = Campus(seed=seed, scheduler=scheduler)
    campus.add_cell("c0", channel=channels[0])
    campus.add_cell("c1", channel=channels[1])
    campus.connect("c0", "c1")
    return campus


# ----------------------------------------------------------------------
# topology
# ----------------------------------------------------------------------
def test_cells_share_one_simulator():
    campus = _two_cell_campus()
    assert campus.cells["c0"].sim is campus.sim
    assert campus.cells["c1"].sim is campus.sim


def test_duplicate_cell_and_ap_names_are_rejected():
    campus = Campus(seed=1)
    campus.add_cell("c0")
    with pytest.raises(ValueError, match="duplicate cell"):
        campus.add_cell("c0")
    with pytest.raises(ValueError, match="duplicate AP address"):
        campus.add_cell("c1", ap_address="ap@c0")


def test_connect_validates_and_is_idempotent():
    campus = Campus(seed=1)
    campus.add_cell("c0")
    campus.add_cell("c1")
    with pytest.raises(ValueError, match="unknown cell"):
        campus.connect("c0", "ghost")
    with pytest.raises(ValueError, match="neighbour itself"):
        campus.connect("c0", "c0")
    campus.connect("c0", "c1")
    campus.connect("c1", "c0")  # same pair, either order: no-op
    assert campus.adjacency == {("c0", "c1")}


def test_adjacency_on_different_channels_stays_inert():
    campus = _two_cell_campus(channels=(1, 6))
    assert campus.adjacency == {("c0", "c1")}


# ----------------------------------------------------------------------
# co-channel interference
# ----------------------------------------------------------------------
def _saturate(campus: Campus, cell_name: str, station: str) -> None:
    cell = campus.cells[cell_name]
    campus.add_station(cell_name, station, rate_mbps=11.0)
    cell.udp_flow(
        cell.stations[station], direction="down", rate_mbps=8.0
    )


def test_co_channel_neighbour_hears_foreign_traffic():
    # All traffic lives in c0, yet c1's medium reads busy: the coupled
    # transmission costs carrier time in the idle neighbour.
    campus = _two_cell_campus(channels=(1, 1))
    _saturate(campus, "c0", "n1")
    campus.run(seconds=0.5)
    busy = campus.cell_busy_fractions()
    assert busy["c0"] > 0.1
    assert busy["c1"] == pytest.approx(busy["c0"], rel=0.05)


def test_cross_channel_neighbour_hears_nothing():
    campus = _two_cell_campus(channels=(1, 6))
    _saturate(campus, "c0", "n1")
    campus.run(seconds=0.5)
    busy = campus.cell_busy_fractions()
    assert busy["c0"] > 0.1
    assert busy["c1"] == 0.0


def test_co_channel_coupling_slows_both_cells_down():
    # Two saturated downlink cells: on the same RF channel they split
    # the air (carrier sense defers across the cell boundary), on
    # different channels each keeps its full standalone goodput.
    def total(channels):
        campus = _two_cell_campus(channels=channels, seed=3)
        _saturate(campus, "c0", "a1")
        _saturate(campus, "c1", "b1")
        campus.run(seconds=0.5)
        return sum(campus.station_throughputs_mbps().values())

    coupled = total((1, 1))
    separate = total((1, 6))
    assert coupled < 0.75 * separate


def test_coupling_requires_the_same_kernel():
    campus_a = Campus(seed=1)
    campus_b = Campus(seed=1)
    a = campus_a.add_cell("c0")
    b = campus_b.add_cell("c0")
    with pytest.raises(ValueError, match="share one simulator"):
        a.channel.couple(b.channel)
    with pytest.raises(ValueError, match="itself"):
        a.channel.couple(a.channel)


# ----------------------------------------------------------------------
# membership
# ----------------------------------------------------------------------
def test_station_names_are_campus_unique():
    campus = _two_cell_campus()
    campus.add_station("c0", "n1", rate_mbps=11.0)
    with pytest.raises(ValueError, match="already a member"):
        campus.add_station("c1", "n1", rate_mbps=11.0)
    assert campus.cell_of("n1") is campus.cells["c0"]


def test_remove_station_clears_membership():
    campus = _two_cell_campus()
    campus.add_station("c0", "n1", rate_mbps=11.0)
    campus.remove_station("n1")
    assert "n1" not in campus.membership
    assert "n1" not in campus.cells["c0"].stations
    campus.remove_station("n1")  # double remove: no-op
    campus.add_station("c1", "n1", rate_mbps=11.0)  # free to re-home
    assert campus.cell_of("n1") is campus.cells["c1"]


def test_roamer_occupancy_sums_across_visited_cells():
    campus = _two_cell_campus(scheduler="tbr")
    _saturate(campus, "c0", "walker")
    campus.sim.schedule(
        200_000.0,
        lambda: (
            campus.remove_station("walker"),
            _saturate(campus, "c1", "walker"),
        ),
    )
    campus.run(seconds=0.5)
    per_cell = campus.cell_occupancy_fractions()
    merged = campus.occupancy_fractions()
    assert per_cell["c0"]["walker"] > 0.0
    assert per_cell["c1"]["walker"] > 0.0
    assert merged["walker"] == pytest.approx(
        per_cell["c0"]["walker"] + per_cell["c1"]["walker"]
    )


# ----------------------------------------------------------------------
# campus sanitizer
# ----------------------------------------------------------------------
def test_sanitizer_catches_double_membership():
    campus = _two_cell_campus()
    campus.add_station("c0", "n1", rate_mbps=11.0)
    sanitizer = CampusSanitizer(campus)
    sanitizer._check_campus(0.0)  # healthy
    # Corrupt: the station object appears in a second cell's table.
    campus.cells["c1"].stations["n1"] = campus.cells["c0"].stations["n1"]
    with pytest.raises(InvariantViolation, match="two cells|not"):
        sanitizer._check_campus(0.0)


def test_sanitizer_catches_membership_map_drift():
    campus = _two_cell_campus()
    campus.add_station("c0", "n1", rate_mbps=11.0)
    sanitizer = CampusSanitizer(campus)
    campus.membership["n1"] = "c1"  # map says c1, cell table says c0
    with pytest.raises(InvariantViolation, match="membership map"):
        sanitizer._check_campus(0.0)


def test_sanitizer_catches_ghost_membership():
    campus = _two_cell_campus()
    campus.add_station("c0", "n1", rate_mbps=11.0)
    sanitizer = CampusSanitizer(campus)
    del campus.cells["c0"].stations["n1"]  # no cell holds it any more
    with pytest.raises(InvariantViolation, match="no cell"):
        sanitizer._check_campus(0.0)


# ----------------------------------------------------------------------
# spec validation
# ----------------------------------------------------------------------
def _campus_spec(timeline=(), **kwargs) -> ScenarioSpec:
    cells = kwargs.pop(
        "cells",
        (
            CellSpec(
                name="c0",
                stations=(StationSpec("a", rate_mbps=11.0),),
                flows=(FlowSpec(station="a", kind="tcp", direction="up"),),
            ),
            CellSpec(
                name="c1",
                stations=(StationSpec("b", rate_mbps=11.0),),
                flows=(FlowSpec(station="b", kind="tcp", direction="up"),),
            ),
        ),
    )
    adjacency = kwargs.pop("adjacency", (("c0", "c1"),))
    return ScenarioSpec(
        name="t",
        scheduler="tbr",
        stations=(),
        flows=(),
        timeline=tuple(timeline),
        seconds=2.0,
        seed=1,
        campus=CampusSpec(cells=cells, adjacency=adjacency),
        **kwargs,
    )


def test_campus_spec_accepts_a_roam_round_trip():
    _campus_spec(
        timeline=(
            RoamEvent(at_s=0.5, station="a", from_cell="c0", to_cell="c1"),
            RoamEvent(at_s=1.0, station="a", from_cell="c1", to_cell="c0"),
        )
    ).validate()


def test_campus_spec_rejects_duplicate_station_across_cells():
    with pytest.raises(ValueError, match="more than one cell"):
        _campus_spec(
            cells=(
                CellSpec(
                    name="c0", stations=(StationSpec("a", rate_mbps=11.0),)
                ),
                CellSpec(
                    name="c1", stations=(StationSpec("a", rate_mbps=11.0),)
                ),
            )
        ).validate()


def test_campus_spec_rejects_roam_from_the_wrong_cell():
    with pytest.raises(ValueError, match="is in"):
        _campus_spec(
            timeline=(
                RoamEvent(
                    at_s=0.5, station="a", from_cell="c1", to_cell="c0"
                ),
            )
        ).validate()


def test_campus_spec_rejects_events_during_a_handoff():
    # The station is in the air between disassociate and association:
    # nothing may target it inside the roam window.
    with pytest.raises(ValueError, match="mid-roam|in flight"):
        _campus_spec(
            timeline=(
                RoamEvent(
                    at_s=0.5, station="a", from_cell="c0", to_cell="c1",
                    delay_s=0.2,
                ),
                LeaveEvent(at_s=0.6, station="a"),
            )
        ).validate()


def test_campus_spec_rejects_top_level_stations():
    with pytest.raises(ValueError, match="top-level"):
        ScenarioSpec(
            name="t",
            scheduler="tbr",
            stations=(StationSpec("x", rate_mbps=11.0),),
            flows=(),
            seconds=1.0,
            seed=1,
            campus=CampusSpec(cells=(CellSpec(name="c0"),)),
        ).validate()


def test_campus_spec_rejects_unknown_adjacency_and_self_pairs():
    with pytest.raises(ValueError, match="unknown cell"):
        _campus_spec(adjacency=(("c0", "ghost"),)).validate()
    with pytest.raises(ValueError, match="itself"):
        _campus_spec(adjacency=(("c0", "c0"),)).validate()


def test_campus_spec_digest_covers_the_campus_section():
    plain = _campus_spec()
    roamy = _campus_spec(
        timeline=(
            RoamEvent(at_s=0.5, station="a", from_cell="c0", to_cell="c1"),
        )
    )
    rechanneled = _campus_spec(
        cells=(
            CellSpec(
                name="c0",
                channel=6,
                stations=(StationSpec("a", rate_mbps=11.0),),
                flows=(FlowSpec(station="a", kind="tcp", direction="up"),),
            ),
            CellSpec(
                name="c1",
                stations=(StationSpec("b", rate_mbps=11.0),),
                flows=(FlowSpec(station="b", kind="tcp", direction="up"),),
            ),
        )
    )
    assert plain.digest != roamy.digest
    assert plain.digest != rechanneled.digest
