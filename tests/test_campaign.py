"""Unit tests for the campaign subsystem: job descriptors, the frozen
config encoding, the on-disk cache, and the executor's merging,
coalescing and cache semantics.

Plumbing tests use ``builtins:dict`` as the executor — a free "echo the
params" job — so only the tests that *need* a simulation pay for one.
"""

import pickle

import pytest

from repro.campaign import (
    CACHE_SCHEMA,
    Job,
    ResultStore,
    execute_job,
    freeze,
    job_params,
    make_job,
    run_jobs,
    serial_results,
    thaw,
)
from repro.core.rate_adjust import RateAdjustConfig
from repro.core.tbr import TbrConfig
from repro.experiments import EXPERIMENTS, FIGURE_SUITE, fig2
from repro.experiments.common import competing_job
from repro.phy.phy import DOT11B_LONG_PREAMBLE, PhyParams, frame_airtime_us

ECHO = "builtins:dict"


def echo_job(experiment, key, **params):
    return make_job(experiment, key, ECHO, params)


# ----------------------------------------------------------------------
# freeze / thaw
# ----------------------------------------------------------------------
def test_freeze_thaw_round_trips_nested_configs():
    original = {
        "rates": {"n1": 1.0, "n2": 11.0},
        "tbr": TbrConfig(weights={"n1": 3.0, "n2": 1.0}),
        "phy": DOT11B_LONG_PREAMBLE,
        "flags": [True, None, "x"],
    }
    frozen = freeze(original)
    hash(frozen)  # hashable all the way down
    thawed = thaw(frozen)
    assert thawed["rates"] == original["rates"]
    assert thawed["tbr"] == original["tbr"]  # dataclass eq incl. weights
    assert isinstance(thawed["tbr"].adjust, RateAdjustConfig)
    assert thawed["phy"] == DOT11B_LONG_PREAMBLE
    assert thawed["flags"] == (True, None, "x")  # sequences come back tuples


def test_freeze_is_insertion_order_independent():
    assert freeze({"a": 1, "b": 2}) == freeze({"b": 2, "a": 1})
    assert freeze({1.0: "x", 11.0: "y"}) == freeze({11.0: "y", 1.0: "x"})


def test_freeze_rejects_arbitrary_objects():
    with pytest.raises(TypeError):
        freeze(object())


# ----------------------------------------------------------------------
# job identity
# ----------------------------------------------------------------------
def test_digest_depends_on_config_not_placement():
    a = echo_job("fig8", ("down", 11.0), seed=1, seconds=2.0)
    b = echo_job("fig9", "elsewhere", seconds=2.0, seed=1)
    assert a.digest == b.digest  # same executor + params
    assert a.digest != echo_job("fig8", ("down", 11.0), seed=2, seconds=2.0).digest
    other_executor = make_job("fig8", ("down", 11.0), "builtins:len", {"seed": 1})
    assert other_executor.digest != echo_job("fig8", ("down", 11.0), seed=1).digest


def test_digest_salted_by_schema(monkeypatch):
    before = echo_job("x", "k", seed=1).digest
    monkeypatch.setattr("repro.campaign.job.CACHE_SCHEMA", CACHE_SCHEMA + "-next")
    after = echo_job("x", "k", seed=1).digest
    assert before != after  # bumping the salt invalidates every entry


def test_job_is_hashable_and_picklable():
    job = competing_job(
        "fig9", ("up", (1.0, 11.0), "tbr"), [1.0, 11.0],
        scheduler="tbr", tbr_config=TbrConfig(work_conserving=True),
        seconds=1.0, seed=3,
    )
    assert hash(job) == hash(job)
    clone = pickle.loads(pickle.dumps(job))
    assert clone == job
    assert clone.digest == job.digest
    spec = job_params(clone)["spec"]
    assert {s.name: s.rate_mbps for s in spec.stations} == {
        "n1": 1.0, "n2": 11.0,
    }
    assert spec.tbr_config.work_conserving is True


def test_job_rejects_malformed_executor():
    with pytest.raises(ValueError):
        Job("x", "k", "no-colon", freeze({}))


def test_execute_job_echo():
    job = echo_job("x", "k", alpha=1, beta={"g": 2.5})
    assert execute_job(job) == {"alpha": 1, "beta": {"g": 2.5}}


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------
def test_cache_round_trip_and_corruption(tmp_path):
    cache = ResultStore(tmp_path / "c")
    digest = "ab" + "0" * 62
    assert cache.get(digest) == (False, None)
    cache.put(digest, {"v": 1})
    assert cache.get(digest) == (True, {"v": 1})
    assert len(cache) == 1
    cache.path_for(digest).write_bytes(b"not a pickle")
    assert cache.get(digest) == (False, None)  # corrupt -> miss, dropped
    assert len(cache) == 0
    cache.put(digest, {"v": 2})
    assert cache.clear() == 1
    assert cache.get(digest) == (False, None)


# ----------------------------------------------------------------------
# executor semantics
# ----------------------------------------------------------------------
def test_run_jobs_merges_by_key_and_coalesces(tmp_path):
    jobs = [
        echo_job("expA", "k1", seed=1),
        echo_job("expA", "k2", seed=2),
        echo_job("expB", "other", seed=1),  # same config as expA:k1
    ]
    outcome = run_jobs(jobs, workers=1)
    assert outcome.stats.total == 3
    assert outcome.stats.unique == 2
    assert outcome.stats.coalesced == 1
    assert outcome.stats.executed == 2
    assert outcome.experiment_results("expA") == {
        "k1": {"seed": 1}, "k2": {"seed": 2}
    }
    assert outcome.experiment_results("expB") == {"other": {"seed": 1}}
    assert outcome.experiments() == ["expA", "expB"]


def test_run_jobs_cache_hits_and_force(tmp_path):
    cache = ResultStore(tmp_path)
    jobs = [echo_job("e", i, seed=i) for i in range(3)]
    cold = run_jobs(jobs, workers=1, cache=cache)
    assert (cold.stats.executed, cold.stats.cached) == (3, 0)
    warm = run_jobs(jobs, workers=1, cache=cache)
    assert (warm.stats.executed, warm.stats.cached) == (0, 3)
    assert warm.results == cold.results
    forced = run_jobs(jobs, workers=1, cache=cache, force=True)
    assert (forced.stats.executed, forced.stats.cached) == (3, 0)


def test_run_jobs_progress_events(tmp_path):
    cache = ResultStore(tmp_path)
    jobs = [echo_job("e", i, seed=i) for i in range(2)]
    events = []
    run_jobs(jobs, workers=1, cache=cache,
             progress=lambda ev, job, done, total: events.append((ev, done, total)))
    assert events == [("executed", 1, 2), ("executed", 2, 2)]
    events.clear()
    run_jobs(jobs, workers=1, cache=cache,
             progress=lambda ev, job, done, total: events.append((ev, done, total)))
    assert events == [("cached", 1, 2), ("cached", 2, 2)]


def test_run_jobs_rejects_conflicting_identities():
    with pytest.raises(ValueError):
        run_jobs(
            [echo_job("e", "k", seed=1), echo_job("e", "k", seed=2)],
            workers=1,
        )


def test_run_jobs_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        run_jobs([echo_job("e", "k", seed=1)], workers=0)


def test_parallel_echo_matches_serial():
    jobs = [echo_job("e", i, seed=i, payload=[i] * 4) for i in range(6)]
    serial = run_jobs(jobs, workers=1)
    parallel = run_jobs(jobs, workers=2)
    assert parallel.results == serial.results
    assert parallel.stats.workers == 2


def test_serial_results_keys_and_order():
    jobs = [echo_job("e", k, seed=i) for i, k in enumerate(("b", "a", "c"))]
    results = serial_results(jobs)
    assert list(results) == ["b", "a", "c"]
    assert results["a"] == {"seed": 1}


# ----------------------------------------------------------------------
# registry: every experiment exposes coherent jobs()/reduce()
# ----------------------------------------------------------------------
def test_registry_covers_figures_tables_and_ablations():
    assert set(FIGURE_SUITE) <= set(EXPERIMENTS)
    assert any(name.startswith("abl-") for name in EXPERIMENTS)
    for name, experiment in EXPERIMENTS.items():
        jobs = experiment.jobs(seed=1)
        assert jobs, name
        assert all(job.experiment == name for job in jobs), name
        keys = [job.key for job in jobs]
        assert len(keys) == len(set(keys)), name  # reduce() can tell them apart


def test_experiment_run_equals_campaign_reduce():
    jobs = fig2.jobs(seed=1, seconds=0.5)
    campaign = fig2.reduce(serial_results(jobs))
    direct = fig2.run(seed=1, seconds=0.5)
    assert fig2.render(campaign) == fig2.render(direct)


# ----------------------------------------------------------------------
# PhyParams multiprocessing safety
# ----------------------------------------------------------------------
def test_phyparams_pickles_cleanly_with_fresh_memos():
    phy = PhyParams(
        name="test", slot_us=20.0, sifs_us=10.0, plcp_us=192.0,
        cw_min=31, cw_max=1023, basic_rates=(1.0, 2.0),
    )
    warm = frame_airtime_us(phy, 1500, 2.0)
    assert phy._psdu_cache  # memo warmed in this process
    clone = pickle.loads(pickle.dumps(phy))
    assert clone == phy
    # The clone starts with *empty, private* memo tables: nothing leaks
    # across the pickle boundary and nothing is shared.
    assert clone._psdu_cache == {}
    assert clone._psdu_cache is not phy._psdu_cache
    assert frame_airtime_us(clone, 1500, 2.0) == warm


def test_default_phy_survives_job_round_trip():
    job = competing_job("t", "k", [11.0], seconds=1.0)
    phy = job_params(pickle.loads(pickle.dumps(job)))["spec"].phy
    assert phy == DOT11B_LONG_PREAMBLE
    assert phy is not DOT11B_LONG_PREAMBLE
    assert phy._eifs_us is None
    assert phy.eifs_us() == DOT11B_LONG_PREAMBLE.eifs_us()
