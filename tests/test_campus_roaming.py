"""Roaming lifecycle: a handoff leaves nothing behind and grants once.

The roam compiles to disassociate(A) → association delay →
associate(B), and these properties are what make it a *handoff* rather
than a crash plus a join: the source cell retains no bucket, queue,
rate entry or channel subscription; the destination grants ``T_init``
exactly once; packet pools balance in every cell; and a roam that
lands mid-MAC-exchange completes or aborts cleanly.  The last tests
close the paper's loop: after the handoff the time-based regulator
re-converges to 1/n_active in *both* cells.
"""

import pytest

from repro.core.tbr import TbrConfig
from repro.scenario import (
    CampusSpec,
    CellSpec,
    FlowSpec,
    RoamEvent,
    ScenarioRuntime,
    ScenarioSpec,
    StationSpec,
    build_spec,
    render_result,
    run_spec,
)

ROAM_S = 1.0
ASSOC_DELAY_S = 0.05


def _roam_spec(
    *,
    locals_per_cell: int = 1,
    roam_back_s: float = None,
    downlink: bool = False,
    seconds: float = 2.0,
    seed: int = 5,
    channels: tuple = (1, 1),
) -> ScenarioSpec:
    """Two TBR cells; ``walker`` starts in c0 and roams to c1 at 1.0 s
    (optionally back later).  All times are absolute sim time —
    warm-up is 0.4 s, so the roam lands inside the measured window."""
    cells = []
    for i in range(2):
        stations = [
            StationSpec(f"c{i}l{j + 1}", rate_mbps=11.0)
            for j in range(locals_per_cell)
        ]
        flows = [
            FlowSpec(station=s.name, kind="tcp", direction="up")
            for s in stations
        ]
        if i == 0:
            stations.append(StationSpec("walker", rate_mbps=1.0))
            flows.append(
                FlowSpec(
                    station="walker",
                    kind="udp",
                    direction="down" if downlink else "up",
                    rate_mbps=8.0 if downlink else 0.8,
                )
            )
        cells.append(
            CellSpec(
                name=f"c{i}",
                channel=channels[i],
                stations=tuple(stations),
                flows=tuple(flows),
            )
        )
    timeline = [
        RoamEvent(
            at_s=ROAM_S,
            station="walker",
            from_cell="c0",
            to_cell="c1",
            delay_s=ASSOC_DELAY_S,
        )
    ]
    if roam_back_s is not None:
        timeline.append(
            RoamEvent(
                at_s=roam_back_s,
                station="walker",
                from_cell="c1",
                to_cell="c0",
                delay_s=ASSOC_DELAY_S,
            )
        )
    return ScenarioSpec(
        name="roam",
        scheduler="tbr",
        stations=(),
        flows=(),
        timeline=tuple(timeline),
        seconds=seconds,
        warmup_seconds=0.4,
        seed=seed,
        campus=CampusSpec(
            cells=tuple(cells), adjacency=(("c0", "c1"),)
        ),
    )


# ----------------------------------------------------------------------
# nothing stranded in the source cell
# ----------------------------------------------------------------------
def test_roam_strands_nothing_in_the_source_cell():
    runtime = ScenarioRuntime(_roam_spec(), sanitize=True)
    runtime.run()
    source = runtime.campus.cells["c0"]
    # No station object, no association, no queue, no tokens, no rate.
    assert "walker" not in source.stations
    assert not source.scheduler.is_associated("walker")
    assert source.scheduler.backlog("walker") == 0
    assert source.scheduler.tokens_us("walker") == 0.0
    assert source.scheduler.token_rate("walker") == 0.0
    # No channel subscription of any kind left behind.
    assert all(
        lis.address != "walker" for lis in source.channel.listeners
    )
    # The source AP's pinned downlink rate entry is gone too.
    assert "walker" not in source.ap.rate_controller.table
    # ...and the destination holds exactly the live association.
    dest = runtime.campus.cells["c1"]
    assert "walker" in dest.stations
    assert dest.scheduler.is_associated("walker")
    assert runtime.campus.membership["walker"] == "c1"


def test_roam_back_strands_nothing_in_either_cell():
    runtime = ScenarioRuntime(
        _roam_spec(roam_back_s=1.5), sanitize=True
    )
    runtime.run()
    campus = runtime.campus
    assert campus.membership["walker"] == "c0"
    for name, holds in (("c0", True), ("c1", False)):
        cell = campus.cells[name]
        assert ("walker" in cell.stations) is holds
        assert cell.scheduler.is_associated("walker") is holds
        if not holds:
            assert cell.scheduler.token_rate("walker") == 0.0
            assert all(
                lis.address != "walker"
                for lis in cell.channel.listeners
            )
    # The walker's flows restarted per landing: original, @r1, @r2.
    names = sorted(
        n for n in campus.throughputs_mbps() if n.startswith("walker")
    )
    assert names == [
        "walker/udp-up", "walker/udp-up@r1", "walker/udp-up@r2",
    ]


# ----------------------------------------------------------------------
# T_init exactly once per (re)association
# ----------------------------------------------------------------------
def test_destination_grants_initial_tokens_exactly_once():
    runtime = ScenarioRuntime(_roam_spec())
    dest = runtime.campus.cells["c1"].scheduler
    grants = []
    real_associate = dest.associate

    def counting_associate(station):
        result = real_associate(station)
        if station == "walker":
            grants.append(dest.tokens_us("walker"))
        return result

    dest.associate = counting_associate
    runtime.run()
    # One grant, and at grant time the bucket held exactly T_init.
    assert grants == [TbrConfig().initial_tokens_us]


def test_landing_bucket_is_fresh_not_inherited():
    # The walker runs saturated downlink in c0, so its bucket is deep
    # in debt when the roam fires; the destination bucket must start
    # from T_init, not inherit the debt.
    runtime = ScenarioRuntime(_roam_spec(downlink=True))
    source = runtime.campus.cells["c0"].scheduler
    debt = {}
    real_disassociate = source.disassociate

    def recording_disassociate(station):
        if station == "walker":
            debt["tokens_us"] = source.tokens_us("walker")
        return real_disassociate(station)

    source.disassociate = recording_disassociate
    runtime.run()
    assert debt["tokens_us"] < TbrConfig().initial_tokens_us
    dest = runtime.campus.cells["c1"].scheduler
    assert dest.is_associated("walker")
    # Ran after landing, so below T_init — but never the imported debt.
    assert dest.tokens_us("walker") > debt["tokens_us"]


# ----------------------------------------------------------------------
# packet conservation and mid-exchange roams
# ----------------------------------------------------------------------
@pytest.mark.parametrize("downlink", [False, True])
def test_roam_leaks_no_pooled_packets(downlink):
    result = run_spec(
        _roam_spec(roam_back_s=1.5, downlink=downlink), sanitize=True
    )
    assert result.pool_leaked == 0
    assert result.roams_fired == 2


def test_roam_during_in_flight_mac_exchange_aborts_cleanly():
    # Cross-channel cells, saturated downlink: the AP MAC holds a
    # frame for the walker when the roam fires, and the walker lands
    # on a *different* RF channel — the orphaned exchange must retry
    # out and drop, pools must balance, and the sanitized run must
    # stay clean.
    runtime = ScenarioRuntime(
        _roam_spec(downlink=True, channels=(1, 6)), sanitize=True
    )
    source_mac = runtime.campus.cells["c0"].ap.mac
    observed = {}
    runtime.campus.sim.schedule(
        ROAM_S * 1e6 - 1.0,
        lambda: observed.update(loaded=source_mac.busy_with_frame),
    )
    runtime.run()
    assert observed["loaded"] is not None  # mid-exchange when it fired
    assert source_mac.tx_dropped >= 1
    assert runtime.pool_leaked() == 0


def test_roam_during_in_flight_mac_exchange_may_complete_cross_cell():
    # Same handoff on co-channel cells: the receiver reappears within
    # RF earshot, so the in-flight exchange may complete through the
    # coupled medium instead of aborting.  Either way: clean pools,
    # clean sanitizer, walker lives in c1.
    runtime = ScenarioRuntime(_roam_spec(downlink=True), sanitize=True)
    runtime.run()
    assert runtime.pool_leaked() == 0
    assert runtime.campus.membership["walker"] == "c1"


# ----------------------------------------------------------------------
# the paper's claim survives the handoff
# ----------------------------------------------------------------------
def _window_shares(cell, start_us, end_us):
    """Occupancy shares over records inside ``[start_us, end_us)``."""
    totals = {}
    for record in cell.channel.records:
        if start_us <= record.time < end_us:
            totals[record.station] = (
                totals.get(record.station, 0.0) + record.airtime_us
            )
    grand = sum(totals.values())
    return {name: t / grand for name, t in totals.items()}


def test_tbr_reconverges_to_fair_share_in_both_cells():
    # Two fast TCP uploaders per cell plus the slow walker (TCP up,
    # the workload TBR regulates through its ACK clock): c0 runs
    # 3-way before the roam and 2-way after; c1 the reverse.  The
    # cells sit on different RF channels so each regulator sees only
    # its own cell, and shares are sampled over the *settled* tail of
    # each phase — the paper's claim is about converged occupancy,
    # not the transient.
    roam_s, warmup_s, seconds = 4.0, 1.0, 6.0
    cells = []
    for i in range(2):
        stations = [
            StationSpec(f"c{i}l{j + 1}", rate_mbps=11.0)
            for j in range(2)
        ]
        if i == 0:
            stations.append(StationSpec("walker", rate_mbps=1.0))
        cells.append(
            CellSpec(
                name=f"c{i}",
                channel=(1, 6)[i],
                stations=tuple(stations),
                flows=tuple(
                    FlowSpec(station=s.name, kind="tcp", direction="up")
                    for s in stations
                ),
            )
        )
    spec = ScenarioSpec(
        name="reconverge",
        scheduler="tbr",
        stations=(),
        flows=(),
        timeline=(
            RoamEvent(
                at_s=roam_s, station="walker",
                from_cell="c0", to_cell="c1",
                delay_s=ASSOC_DELAY_S,
            ),
        ),
        seconds=seconds,
        warmup_seconds=warmup_s,
        seed=7,
        campus=CampusSpec(
            cells=tuple(cells), adjacency=(("c0", "c1"),)
        ),
    )
    runtime = ScenarioRuntime(spec)
    for cell in runtime.campus.cells.values():
        cell.channel.records = []
    runtime.run()
    split_us = roam_s * 1e6
    end_us = (warmup_s + seconds) * 1e6
    settle_us = 1.0e6
    c0 = runtime.campus.cells["c0"]
    c1 = runtime.campus.cells["c1"]

    before = _window_shares(c0, warmup_s * 1e6 + settle_us, split_us)
    assert set(before) == {"c0l1", "c0l2", "walker"}
    for station, share in before.items():
        assert share == pytest.approx(1 / 3, abs=0.12), (station, before)

    after = _window_shares(c0, split_us + settle_us, end_us)
    assert set(after) == {"c0l1", "c0l2"}
    for station, share in after.items():
        assert share == pytest.approx(1 / 2, abs=0.12), (station, after)

    landed = _window_shares(c1, split_us + settle_us, end_us)
    assert set(landed) == {"c1l1", "c1l2", "walker"}
    for station, share in landed.items():
        assert share == pytest.approx(1 / 3, abs=0.12), (station, landed)


def test_roams_are_visible_in_merged_occupancy():
    result = run_spec(_roam_spec(seconds=3.0))
    # The walker occupied the campus from both cells in one window.
    assert result.cell_occupancy["c0"].get("walker", 0.0) > 0.0
    assert result.cell_occupancy["c1"].get("walker", 0.0) > 0.0
    assert result.occupancy["walker"] == pytest.approx(
        result.cell_occupancy["c0"]["walker"]
        + result.cell_occupancy["c1"]["walker"]
    )


# ----------------------------------------------------------------------
# composition with the runtime switches
# ----------------------------------------------------------------------
def test_campus_family_is_invariant_under_sanitize_and_fastforward():
    spec = build_spec("campus", seconds=2.0, warmup_s=0.5)
    renders = {
        render_result(
            run_spec(spec, sanitize=sanitize, fast_forward=fast_forward)
        )
        for sanitize in (False, True)
        for fast_forward in (False, True)
    }
    assert len(renders) == 1


def test_campus_runs_never_engage_the_fast_forward_engine():
    spec = build_spec("campus", seconds=2.0, warmup_s=0.5)
    result = run_spec(spec, fast_forward=True)
    assert result.fast_forwards == 0
    assert result.fast_forwarded_s == 0.0


def test_flagged_campus_run_says_why_it_never_jumped():
    # The engine, not the builder, holds the multi-cell decision: an
    # empty ``declines`` would read as "never armed".
    runtime = ScenarioRuntime(
        build_spec("campus", seconds=1.0, warmup_s=0.2), fast_forward=True
    )
    runtime.run()
    assert runtime.campus.sim.fast_forwards == 0
    assert runtime.ff_engine.declines == {"multi-cell": 1}
