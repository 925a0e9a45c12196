"""Deterministic event budgets for saturated cells and the campus.

These pins are the enforcement half of the demand-driven traffic
engine: the fused path charges exactly ONE kernel event per
*observable* arrival — an admitted packet, or a tail drop that ties
with or follows the next thing that can run; drops nothing can observe
are drained inline by the wire pump (``WiredLink.drained``) — and any
future change that silently re-inflates event volume — a timer that
re-arms per packet, a wire that grows its transient pair back, a
scheduler that polls, a drain that stops draining — shifts these exact
counts and fails tier-1.

The counts are fully deterministic (fixed seed, named RNG streams), so
exact equality is the right assertion; the failure message prints the
measured table to paste in *if the inflation is intentional and
justified in the PR description*.

Every cell here is a plain :class:`~repro.scenario.ScenarioSpec` run
through ``run_spec`` — the one spec -> cell compile — so the budgets
gate the path every scenario, campaign job and ``repro serve`` request
takes.  Wall-clock for the same regime is ``benchmarks/suite``'s
``cell-saturated`` workload; these counts are its deterministic proxy.

The headline pin doubles as an acceptance record: PR 2's
``tbr/multi/n64`` @ 0.5 s executed 2378 events; the engine brought it
to 1378 (-42%, >= the 35% target), of which 998 were traffic — one per
offered packet plus the pump's lead-in — instead of 2 * offered; the
drain then took it to 705, of which 325 are traffic (the other 673
offered packets are tail drops accounted without an event).
"""

import pytest

from repro.scenario import (
    FlowSpec,
    ScenarioRuntime,
    ScenarioSpec,
    StationSpec,
    build_spec,
    run_spec,
)
from repro.sim import EventCategory

#: Rate ladder of the ``multi`` profile (the paper's 802.11b set);
#: ``same`` puts every station at 11 Mbps.
MULTI_RATES = (1.0, 2.0, 5.5, 11.0)


def saturated_spec(scheduler, profile, stations, seconds):
    """A saturated downlink cell: ``stations`` clients, one UDP downlink
    each, together offering 24 Mbps (never under 0.15 Mbps a station) —
    well above any 802.11b cell's capacity, so every AP queue stays
    backlogged whatever N and the rate profile are."""
    names = [f"n{i + 1:03d}" for i in range(stations)]
    offered = max(0.15, 24.0 / stations)
    return ScenarioSpec(
        name=f"{scheduler}/{profile}/n{stations}",
        scheduler=scheduler,
        stations=tuple(
            StationSpec(
                name,
                rate_mbps=11.0 if profile == "same"
                else MULTI_RATES[i % len(MULTI_RATES)],
            )
            for i, name in enumerate(names)
        ),
        flows=tuple(
            FlowSpec(station=name, kind="udp", direction="down",
                     rate_mbps=offered)
            for name in names
        ),
        seconds=seconds,
        warmup_seconds=0.0,
        seed=1,
    )


#: (scheduler, profile, stations, seconds) -> (total, per-category).
PINNED_BUDGETS = {
    ("fifo", "same", 4, 0.1): (
        373, {"traffic": 173, "mac": 100, "phy": 100, "timer": 0, "other": 0},
    ),
    ("drr", "same", 4, 0.1): (
        372, {"traffic": 172, "mac": 100, "phy": 100, "timer": 0, "other": 0},
    ),
    ("tbr", "same", 4, 0.1): (
        381, {"traffic": 172, "mac": 100, "phy": 100, "timer": 9, "other": 0},
    ),
    ("fifo", "multi", 4, 0.1): (
        189, {"traffic": 129, "mac": 30, "phy": 30, "timer": 0, "other": 0},
    ),
    ("drr", "multi", 4, 0.1): (
        185, {"traffic": 125, "mac": 30, "phy": 30, "timer": 0, "other": 0},
    ),
    ("tbr", "multi", 4, 0.1): (
        198, {"traffic": 129, "mac": 30, "phy": 30, "timer": 9, "other": 0},
    ),
    # The BENCH_perf.json headline scenario (PR 2 baseline: 2378).
    ("tbr", "multi", 64, 0.5): (
        705, {"traffic": 325, "mac": 165, "phy": 166, "timer": 49, "other": 0},
    ),
}

PR2_HEADLINE_EVENTS = 2378


@pytest.mark.parametrize(
    "key", sorted(PINNED_BUDGETS), ids=lambda k: f"{k[0]}/{k[1]}/n{k[2]}"
)
def test_scenario_event_budget_is_pinned(key):
    expected_total, expected_cats = PINNED_BUDGETS[key]
    result = run_spec(saturated_spec(*key))
    measured = (result.events_executed, result.events_by_category)
    assert measured == (expected_total, expected_cats), (
        "event budget shifted — if the change is intentional, update "
        f"PINNED_BUDGETS[{key!r}] to {measured!r} and justify the new "
        "volume in the PR description"
    )


def test_headline_event_reduction_vs_pr2_baseline():
    """The acceptance criterion: >= 70% fewer kernel events on
    tbr/multi/n64 than the PR 2 two-event traffic path (35% from the
    one-event engine, the rest from draining unobservable drops)."""
    total, cats = PINNED_BUDGETS[("tbr", "multi", 64, 0.5)]
    assert total <= PR2_HEADLINE_EVENTS * 0.30
    # Traffic no longer dominates: fewer traffic events than MAC + PHY.
    assert cats["traffic"] < cats["mac"] + cats["phy"]


def test_budget_table_covers_every_category_key():
    names = {category.name.lower() for category in EventCategory}
    for _, cats in PINNED_BUDGETS.values():
        assert set(cats) == names


# ----------------------------------------------------------------------
# N=16 smoke: the kernel neither stalls nor explodes, and repeats
# ----------------------------------------------------------------------
#: Short but long enough to saturate the cell.
SMOKE = ("tbr", "multi", 16, 0.2)

#: Events the smoke cell may execute.  The exact count is deterministic
#: (asserted below); the budget guards against the kernel regressing
#: into scheduling storms (e.g. a timer rescheduling itself at zero
#: delay) without pinning the number itself.
SMOKE_EVENT_BUDGET = 20_000


def test_n16_smoke_within_event_budget():
    result = run_spec(saturated_spec(*SMOKE))
    assert 0 < result.events_executed <= SMOKE_EVENT_BUDGET
    assert result.seconds == pytest.approx(0.2)
    assert result.total_mbps > 0  # the saturated cell carried traffic


def test_smoke_event_count_is_deterministic():
    first = run_spec(saturated_spec(*SMOKE))
    second = run_spec(saturated_spec(*SMOKE))
    assert first.events_executed == second.events_executed
    assert first.total_mbps == second.total_mbps


def test_budget_enforceable_with_max_events():
    # The budget assertion above is advisory; this drives the same cell
    # through the kernel's hard cap to prove the cap composes with it.
    sim = ScenarioRuntime(saturated_spec(*SMOKE)).cell.sim
    # (The uncapped run executes 316 events; the cap must sit below.)
    sim.run(until=200_000.0, max_events=250)
    assert sim.events_executed == 250


def test_sample_records_event_categories():
    result = run_spec(saturated_spec("tbr", "multi", 4, 0.1))
    cats = result.events_by_category
    assert set(cats) == {"traffic", "mac", "phy", "timer", "other"}
    assert sum(cats.values()) == result.events_executed
    # Saturated downlink: traffic events exist and cost one per packet.
    assert cats["traffic"] > 0


# ----------------------------------------------------------------------
# campus (ESS) event budgets: coupling cost and roam counts are pinned
# ----------------------------------------------------------------------
#: (n_channels,) -> (timeline fired, roams, total, per-category).
#: Both run the 2-cell campus family at 1.2 s with one roamer; with
#: ``n_channels=1`` the pair is co-channel, so every frame charges one
#: extra PHY event on the coupled neighbour (phy > mac — unique to
#: coupled runs); with ``n_channels=3`` the adjacency is inert and the
#: cells run at full independent throughput (phy < mac, more traffic).
CAMPUS_PINNED_BUDGETS = {
    1: (
        2, 2, 3926,
        {"traffic": 486, "mac": 1132, "phy": 2004, "timer": 300, "other": 4},
    ),
    3: (
        2, 2, 7821,
        {"traffic": 1430, "mac": 3190, "phy": 2897, "timer": 300, "other": 4},
    ),
}


def campus_spec(n_channels):
    return build_spec(
        "campus", seconds=1.2, warmup_s=0.3, n_channels=n_channels
    )


@pytest.mark.parametrize(
    "n_channels", sorted(CAMPUS_PINNED_BUDGETS), ids=lambda n: f"ch{n}"
)
def test_campus_event_budget_is_pinned(n_channels):
    fired, roams, total, cats = CAMPUS_PINNED_BUDGETS[n_channels]
    result = run_spec(campus_spec(n_channels))
    measured = (
        result.timeline_fired,
        result.roams_fired,
        result.events_executed,
        result.events_by_category,
    )
    assert measured == (fired, roams, total, cats), (
        "campus event budget shifted — if the change is intentional, "
        f"update CAMPUS_PINNED_BUDGETS[{n_channels}] to {measured!r} "
        "and justify the new volume in the PR description"
    )


def test_coupling_charges_phy_per_neighbour():
    # The structural signature of the co-channel model: coupled media
    # replay each frame as an extra PHY event on the neighbour, so
    # only the coupled plan runs phy above mac.
    _, _, _, coupled = CAMPUS_PINNED_BUDGETS[1]
    _, _, _, separate = CAMPUS_PINNED_BUDGETS[3]
    assert coupled["phy"] > coupled["mac"]
    assert separate["phy"] < separate["mac"]


# ----------------------------------------------------------------------
# heap pushes: the work behind the executed events
# ----------------------------------------------------------------------
#: label -> (spec, executed events as pinned above, heap pushes).
#: ``Simulator._seq`` counts every schedule / reschedule, executed or
#: not; what it has over the executed count is freeze/resume churn —
#: countdowns armed and cancelled without expiring, ACK timeouts
#: cancelled by the ACK.  Pushes may only move down; say why.  PR 22's
#: response hold took the campus rows from 7 499 and 12 860 (one arm
#: never pushed per contender per exchange, local and foreign); the n64
#: cell has a single contender, the AP, so nothing is ever frozen there
#: and it stayed at 794.
HEADLINE = ("tbr", "multi", 64, 0.5)
PINNED_PUSHES = {
    "tbr/multi/n64": (
        saturated_spec(*HEADLINE), PINNED_BUDGETS[HEADLINE][0], 794,
    ),
    "campus/ch1": (campus_spec(1), CAMPUS_PINNED_BUDGETS[1][2], 6116),
    "campus/ch3": (campus_spec(3), CAMPUS_PINNED_BUDGETS[3][2], 11460),
}


@pytest.mark.parametrize("label", sorted(PINNED_PUSHES))
def test_heap_pushes_are_pinned(label):
    spec, events, pushes = PINNED_PUSHES[label]
    runtime = ScenarioRuntime(spec)
    runtime.run()
    sim = runtime.campus.sim
    measured = (sim.events_executed, sim._seq)
    assert measured == (events, pushes), (
        f"{label}: (events, pushes) moved to {measured!r} — pushes may "
        "only fall at unchanged events; say why in the PR description"
    )
