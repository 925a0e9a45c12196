"""Scenario family goldens: renders and event budgets are pinned.

Each of the four shipped workload families runs a short, fully
deterministic configuration; the rendered summary must match the
stored golden byte for byte, and the kernel-event budget — total and
per category, timeline events included under ``other`` — must match
exactly.  A silent change to RNG stream layout, event ordering, flow
naming or timeline semantics fails here first.
"""

import pathlib

import pytest

from repro.campaign.store import ResultStore, encode_entry, job_meta
from repro.campaign.executor import run_jobs, serial_results
from repro.scenario import (
    ScenarioRuntime,
    build_spec,
    render_result,
    run_spec,
    scenario_job,
    sweep_specs,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: The pinned configuration per family (short horizons, rich timelines).
GOLDEN_PARAMS = {
    "churn": dict(
        seconds=2.0, warmup_s=0.5, period_s=0.5, stay_s=0.75, n_joiners=3
    ),
    "mobility": dict(seconds=2.0, warmup_s=0.5, dwell_s=0.4),
    "bursty": dict(seconds=2.0, warmup_s=0.5, on_s=0.5, off_s=0.5),
    "mixed": dict(seconds=1.5, warmup_s=0.5),
    "fairness-churn": dict(seconds=2.4, warmup_s=0.5),
    "fairness-outage": dict(seconds=3.0, warmup_s=0.5, outage_s=0.5),
    "campus": dict(seconds=2.5, warmup_s=0.5),
    # The only family that arms the AP-side reaper; seed 1 reaps one
    # crashed station (see test_chaos_golden_reaps_a_station).
    "chaos": dict(seconds=6.0),
}

#: family -> (timeline fired, total events, per-category events).
PINNED_BUDGETS = {
    "churn": (
        6, 6297,
        {"traffic": 1162, "mac": 2524, "phy": 2354, "timer": 251, "other": 6},
    ),
    "mobility": (
        4, 6718,
        {"traffic": 1206, "mac": 2734, "phy": 2523, "timer": 251, "other": 4},
    ),
    "bursty": (
        3, 3520,
        {"traffic": 867, "mac": 1215, "phy": 1184, "timer": 251, "other": 3},
    ),
    "mixed": (
        0, 4241,
        {"traffic": 1402, "mac": 1360, "phy": 1279, "timer": 200, "other": 0},
    ),
    "fairness-churn": (
        2, 8906,
        {"traffic": 1640, "mac": 3663, "phy": 3310, "timer": 291, "other": 2},
    ),
    # timeline fires once (the outage); the recovery and the four
    # jittered re-associations are builder machinery, booked under
    # ``other`` but not in ``timeline_fired``.
    "fairness-outage": (
        1, 8092,
        {"traffic": 1530, "mac": 3258, "phy": 2946, "timer": 352, "other": 6},
    ),
    # Two co-channel cells, one roamer: the timeline fires two roams
    # (out and back); each landing is builder machinery under ``other``
    # but not in ``timeline_fired``; the coupled medium charges one
    # extra PHY event per frame per co-channel neighbour, which is why
    # ``phy`` runs well above ``mac`` here and nowhere else.
    "campus": (
        2, 8390,
        {"traffic": 1033, "mac": 2433, "phy": 4318, "timer": 602, "other": 4},
    ),
    # Twelve timeline events fire; the end of each of the three
    # channel-degrade windows is builder machinery under ``other``.
    "chaos": (
        12, 9400,
        {"traffic": 2407, "mac": 3369, "phy": 2954, "timer": 655, "other": 15},
    ),
}


@pytest.fixture(scope="module")
def family_results():
    return {
        family: run_spec(build_spec(family, **params))
        for family, params in GOLDEN_PARAMS.items()
    }


@pytest.mark.parametrize("family", sorted(GOLDEN_PARAMS))
def test_family_render_matches_golden(family, family_results):
    rendered = render_result(family_results[family]) + "\n"
    expected = (GOLDEN_DIR / f"scenario_{family}.txt").read_text()
    assert rendered == expected


@pytest.mark.parametrize("family", sorted(PINNED_BUDGETS))
def test_family_event_budget_is_pinned(family, family_results):
    result = family_results[family]
    fired, total, cats = PINNED_BUDGETS[family]
    measured = (
        result.timeline_fired,
        result.events_executed,
        result.events_by_category,
    )
    assert measured == (fired, total, cats), (
        "scenario event budget shifted — if intentional, update "
        f"PINNED_BUDGETS[{family!r}] to {measured!r} and regenerate the "
        "golden (see tests/test_scenario_golden.py)"
    )


def test_timeline_families_actually_fire_events():
    fired = {f: PINNED_BUDGETS[f][0] for f in PINNED_BUDGETS}
    assert fired["churn"] >= 4  # joins and leaves
    assert fired["mobility"] >= 3  # rate switches
    assert fired["bursty"] >= 2  # off/on cycles
    assert fired["fairness-churn"] == 2  # one leave, one rejoin
    assert fired["campus"] == 2  # roam out, roam back


@pytest.mark.parametrize("family", sorted(GOLDEN_PARAMS))
def test_family_run_leaks_no_pooled_packets(family, family_results):
    # Packet conservation across every golden family, including the
    # chaos-adjacent ones (leave flushes, outage flushes, aborted
    # in-flight frames): the pool remainder must be exactly zero.
    assert family_results[family].pool_leaked == 0


def test_fairness_outage_recovers_everyone(family_results):
    # After the blackout every station re-associated (present at end
    # with a final rate) and moved traffic on the far side: downlink
    # state, token grants and MAC attachments all survived the outage.
    result = family_results["fairness-outage"]
    assert sorted(result.final_rates_mbps) == [
        "peer1", "peer2", "peer3", "slow",
    ]
    for station, mbps in result.throughput_mbps.items():
        assert mbps > 0.0, station
    # Re-association rides the rejoin path: each flow restarts under a
    # fresh @r1 name after recovery.
    restarted = [
        name for name in result.flow_throughput_mbps if "@r1" in name
    ]
    assert len(restarted) == 4
    for name in restarted:
        assert result.flow_throughput_mbps[name] > 0.0, name


def test_chaos_golden_reaps_a_station():
    # The golden chaos run must exercise the reaper: a crashed station's
    # retry exhaustions reach it and it disassociates the dead peer.
    runtime = ScenarioRuntime(build_spec("chaos", **GOLDEN_PARAMS["chaos"]))
    runtime.run()
    assert runtime.cell.ap.reaper.reap_count >= 1


def test_campus_golden_roams_out_and_back(family_results):
    # Both timeline roams fired, the roamer ended back home, and its
    # airtime is attributed by both cells (merged occupancy = the sum).
    result = family_results["campus"]
    assert result.roams_fired == 2
    assert result.cell_members == {
        "c0": ["c0l1", "roam1"], "c1": ["c1l1"],
    }
    assert result.cell_channels == {"c0": 1, "c1": 1}  # coupled pair
    assert result.cell_occupancy["c0"]["roam1"] > 0.0
    assert result.cell_occupancy["c1"]["roam1"] > 0.0
    assert result.occupancy["roam1"] == pytest.approx(
        result.cell_occupancy["c0"]["roam1"]
        + result.cell_occupancy["c1"]["roam1"]
    )
    # Each landing restarted the roamer's flow under a fresh identity.
    assert sorted(
        name
        for name in result.flow_throughput_mbps
        if name.startswith("roam1")
    ) == ["roam1/tcp-up", "roam1/tcp-up@r1", "roam1/tcp-up@r2"]


def test_fairness_churn_tears_down_and_rejoins(family_results):
    # The golden run's leaver truly left and came back: it must be
    # associated again at the end with zero retained departed-state.
    result = family_results["fairness-churn"]
    assert result.throughput_mbps["leaver"] > 0.0
    assert "leaver" in result.final_rates_mbps  # present at end (rejoined)
    # The leaver's flows appear twice: original plus the @r1 restart.
    assert sorted(
        name for name in result.flow_throughput_mbps if "leaver" in name
    ) == ["leaver/tcp-up", "leaver/tcp-up@r1"]
    assert result.flow_throughput_mbps["leaver/tcp-up@r1"] > 0.0


# ----------------------------------------------------------------------
# campaign integration: specs are the job configs
# ----------------------------------------------------------------------
def test_sweep_runs_as_cached_campaign_jobs(tmp_path):
    specs = sweep_specs(
        "bursty", {"scheduler": ["fifo", "tbr"]},
        seconds=1.0, warmup_s=0.25,
    )
    jobs = [scenario_job(spec, key=spec.name) for spec in specs]
    cache = ResultStore(str(tmp_path / "cache"))

    cold = run_jobs(jobs, workers=1, cache=cache)
    assert cold.stats.executed == 2
    results = cold.experiment_results("scenario")
    assert sorted(results) == sorted(spec.name for spec in specs)

    warm = run_jobs(jobs, workers=1, cache=cache)
    assert warm.stats.executed == 0
    assert warm.stats.cached == 2
    warm_results = warm.experiment_results("scenario")
    for name, result in results.items():
        assert warm_results[name].throughput_mbps == result.throughput_mbps
        assert warm_results[name].events_executed == result.events_executed

    # The scheduler axis must actually change the outcome.
    fifo, tbr = (results[spec.name] for spec in specs)
    assert fifo.scheduler == "fifo" and tbr.scheduler == "tbr"
    assert fifo.throughput_mbps != tbr.throughput_mbps


@pytest.mark.parametrize("family", sorted(GOLDEN_PARAMS))
def test_run_jobs_lands_the_entry_of_the_result(
    family, family_results, tmp_path
):
    """The stored entry is the result encoded once under the job's
    metadata, byte for byte: no re-encoding on the way to disk."""
    spec = build_spec(family, **GOLDEN_PARAMS[family])
    job = scenario_job(spec, key=spec.name)
    store = ResultStore(tmp_path / "store")
    assert run_jobs([job], workers=1, cache=store).stats.executed == 1
    assert store.path_for(job.digest).read_bytes() == encode_entry(
        family_results[family], job_meta(job)
    )


def test_scenario_jobs_parallel_matches_serial():
    specs = sweep_specs(
        "mixed", {"scheduler": ["fifo", "tbr"]},
        seconds=0.5, warmup_s=0.1, n_tcp=1, n_udp=1,
    )
    jobs = [scenario_job(spec, key=spec.name) for spec in specs]
    serial = serial_results(jobs)
    parallel = run_jobs(jobs, workers=2, cache=None).experiment_results(
        "scenario"
    )
    for key, result in parallel.items():
        assert result.throughput_mbps == serial[key].throughput_mbps
        assert result.events_by_category == serial[key].events_by_category


def test_identical_specs_coalesce():
    spec = build_spec("bursty", seconds=0.5, warmup_s=0.1)
    jobs = [
        scenario_job(spec, key="first"),
        scenario_job(spec, key="second"),
    ]
    outcome = run_jobs(jobs, workers=1, cache=None)
    assert outcome.stats.executed == 1
    assert outcome.stats.coalesced == 1
