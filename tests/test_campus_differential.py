"""Differential equivalence: a 1-cell campus IS the single-cell path.

One compiler builds both spellings (a plain spec is normalised to one
implicit cell), so this pair is a regression pin rather than a proof:
the same stations, flows and timeline wrapped in a one-cell
``CampusSpec`` must stay *byte-identical* — rendered figures, usage
ledger, per-category event counts, fast-forward jumps — to the plain
spec.  Every RNG stream, event ordering and measurement window has to
line up for this to hold, so a normalisation that drifts (an extra
event, a renamed stream, a skewed warm-up, a flag honoured for one
spelling only) fails here first.
"""

import pytest

from repro.scenario import (
    CampusSpec,
    CellSpec,
    FlowSpec,
    RateSwitchEvent,
    ScenarioSpec,
    StationSpec,
    TrafficOffEvent,
    TrafficOnEvent,
    build_spec,
    render_result,
    run_spec,
)

STATIONS = (
    StationSpec("fast", rate_mbps=11.0),
    StationSpec("slow", rate_mbps=1.0),
)
FLOWS = (
    FlowSpec(station="fast", kind="tcp", direction="up"),
    FlowSpec(station="slow", kind="tcp", direction="up"),
)
TIMELINE = (
    TrafficOffEvent(at_s=0.9, station="fast"),
    RateSwitchEvent(at_s=1.0, station="slow", rate_mbps=5.5),
    TrafficOnEvent(at_s=1.2, station="fast"),
)


def _pair(
    scheduler: str,
    timeline=(),
    seed: int = 3,
    stations=STATIONS,
    flows=FLOWS,
    seconds: float = 1.8,
):
    """The same workload as a plain spec and as a 1-cell campus."""
    common = dict(
        name="diff",
        scheduler=scheduler,
        seconds=seconds,
        warmup_seconds=0.4,
        seed=seed,
        timeline=timeline,
    )
    plain = ScenarioSpec(stations=stations, flows=flows, **common)
    campus = ScenarioSpec(
        stations=(),
        flows=(),
        campus=CampusSpec(
            cells=(
                CellSpec(name="solo", stations=stations, flows=flows),
            )
        ),
        **common,
    )
    return plain, campus


def _identical(plain_result, campus_result):
    assert render_result(plain_result) == render_result(campus_result)
    assert plain_result.throughput_mbps == campus_result.throughput_mbps
    assert (
        plain_result.flow_throughput_mbps
        == campus_result.flow_throughput_mbps
    )
    assert plain_result.occupancy == campus_result.occupancy
    assert (
        plain_result.final_rates_mbps == campus_result.final_rates_mbps
    )
    assert plain_result.timeline_fired == campus_result.timeline_fired
    assert (
        plain_result.events_executed == campus_result.events_executed
    )
    assert (
        plain_result.events_by_category
        == campus_result.events_by_category
    )
    assert plain_result.pool_leaked == campus_result.pool_leaked == 0


@pytest.mark.parametrize("scheduler", ["fifo", "rr", "drr", "tbr"])
def test_one_cell_campus_is_byte_identical(scheduler):
    plain, campus = _pair(scheduler)
    _identical(run_spec(plain), run_spec(campus))


def test_one_cell_campus_matches_through_a_timeline():
    plain, campus = _pair("tbr", timeline=TIMELINE)
    plain_result, campus_result = run_spec(plain), run_spec(campus)
    assert plain_result.timeline_fired == len(TIMELINE)
    _identical(plain_result, campus_result)


def test_one_cell_campus_matches_under_the_sanitizer():
    plain, campus = _pair("tbr", timeline=TIMELINE)
    _identical(
        run_spec(plain, sanitize=True), run_spec(campus, sanitize=True)
    )


def test_one_cell_campus_matches_with_fast_forward_flagged():
    # TCP flows are statically ineligible, so the flag must be a no-op
    # on both paths — flagged and unflagged all agree.
    plain, campus = _pair("tbr")
    results = [
        run_spec(plain, fast_forward=False),
        run_spec(campus, fast_forward=False),
        run_spec(plain, fast_forward=True),
        run_spec(campus, fast_forward=True),
    ]
    for result in results[1:]:
        _identical(results[0], result)
    assert all(r.fast_forwards == 0 for r in results)


def test_one_cell_campus_jumps_exactly_like_the_plain_spec():
    # Saturated downlink UDP (steady-long's cell) is what the engine
    # certifies, and it arms on one cell however the spec spells it:
    # same jumps, same simulated time skipped, same bytes.
    steady = build_spec("steady-long", seconds=8.0, perturb_every_s=4.0)
    plain, campus = _pair(
        "tbr",
        timeline=steady.timeline,
        seed=1,
        stations=steady.stations,
        flows=steady.flows,
        seconds=8.0,
    )
    plain_result = run_spec(plain, fast_forward=True)
    campus_result = run_spec(campus, fast_forward=True)
    assert plain_result.fast_forwards >= 1
    assert plain_result.fast_forwards == campus_result.fast_forwards
    assert plain_result.fast_forwarded_s == campus_result.fast_forwarded_s
    _identical(plain_result, campus_result)


def test_one_cell_campus_render_has_no_campus_block():
    _, campus = _pair("tbr")
    rendered = render_result(run_spec(campus))
    assert "campus:" not in rendered


def test_one_cell_campus_shares_the_digest_space_but_not_the_digest():
    # The two paths are equivalent at runtime yet remain distinct specs
    # (the campus section is real content): caches must not conflate
    # them.
    plain, campus = _pair("tbr")
    assert plain.digest != campus.digest
