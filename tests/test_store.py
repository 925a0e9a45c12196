"""The layered result store: index, queries, planning, self-healing.

The index is advisory — entry files are the source of truth — so every
test here checks both directions: index rows must answer queries
without unpickling a single payload, and damage to either side (torn
index tail, vanished entry file, killed writer mid-campaign) must be
detected and healed back to exactly the surviving entries.
"""

import hashlib
import json
import pickle
import shutil
from pathlib import Path

import pytest

from repro.campaign.executor import run_jobs
from repro.campaign.faults import FaultPlan
from repro.campaign.job import make_job
from repro.campaign.policy import RetryPolicy
from repro.campaign.store import (
    CACHE_DIR_ENV,
    DEFAULT_CACHE_DIRNAME,
    ResultStore,
    StoreIndex,
    default_store_root,
    job_meta,
)

ECHO = "repro.campaign.faults:echo"
FIXTURE = Path(__file__).parent / "fixtures" / "store_no_index"


def echo_job(value, experiment="store-test", seed=None):
    params = {"value": value}
    if seed is not None:
        params["seed"] = seed
    return make_job(experiment, f"key-{value}", ECHO, params)


# ----------------------------------------------------------------------
# default-root resolution (the relative-path footgun fix)
# ----------------------------------------------------------------------
def test_env_var_wins(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env-store"))
    assert default_store_root() == tmp_path / "env-store"


def test_repo_root_beats_cwd(tmp_path, monkeypatch):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    (tmp_path / ".git").mkdir()
    sub = tmp_path / "src" / "deep"
    sub.mkdir(parents=True)
    monkeypatch.chdir(sub)
    # Run from a subdirectory: the store still lands at the repo root,
    # not under the CWD (the old behaviour grew a second cold cache).
    assert default_store_root() == tmp_path / DEFAULT_CACHE_DIRNAME


def test_cwd_fallback_outside_any_repo(tmp_path, monkeypatch):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    assert default_store_root() == (
        tmp_path / DEFAULT_CACHE_DIRNAME
    ).relative_to(tmp_path)


# ----------------------------------------------------------------------
# index + query + stat
# ----------------------------------------------------------------------
def test_put_for_job_indexes_and_queries(tmp_path):
    store = ResultStore(tmp_path / "store")
    jobs = [echo_job(i, seed=i % 2) for i in range(4)]
    for job in jobs:
        store.put_for_job(job, {"echo": job.key})
    rows = store.query(experiment="store-test")
    assert len(rows) == 4
    digests = {job.digest for job in jobs}
    assert {digest for digest, _ in rows} == digests
    assert all(meta["executor"] == ECHO for _, meta in rows)
    # seed filter
    assert len(store.query(seed=0)) == 2
    assert len(store.query(seed=1)) == 2
    assert store.query(experiment="other") == []
    # digest-prefix filter
    some = jobs[0].digest
    assert [d for d, _ in store.query(digest_prefix=some[:12])] == [some]


def test_query_never_unpickles(tmp_path, monkeypatch):
    store = ResultStore(tmp_path / "store")
    for i in range(3):
        store.put_for_job(echo_job(i), {"echo": i})

    def boom(*a, **k):  # pragma: no cover - must never run
        raise AssertionError("query unpickled a payload")

    reopened = ResultStore(tmp_path / "store")
    monkeypatch.setattr(pickle, "loads", boom)
    monkeypatch.setattr(pickle, "load", boom)
    assert len(reopened.query(experiment="store-test")) == 3
    assert reopened.stat(echo_job(0).digest)["indexed"]


def test_stat_reports_size_and_meta(tmp_path):
    store = ResultStore(tmp_path / "store")
    job = echo_job("x", seed=7)
    store.put_for_job(job, {"echo": "x"})
    st = store.stat(job.digest)
    assert st["size_bytes"] > 0
    assert st["indexed"] and st["seed"] == 7
    assert st["experiment"] == "store-test"
    assert store.stat("f" * 64) is None


def test_scenario_meta_family_and_seed(tmp_path):
    from repro.scenario.registry import build_spec
    from repro.scenario.runner import scenario_job

    spec = build_spec("churn", seconds=1.0, seed=5)
    meta = job_meta(scenario_job(spec, key=spec.name))
    assert meta["family"] == "churn"  # "[overrides]" suffix stripped
    assert meta["seed"] == 5
    assert meta["experiment"] == "scenario"


# ----------------------------------------------------------------------
# incremental-sweep planning
# ----------------------------------------------------------------------
def test_plan_splits_cached_and_missing(tmp_path):
    store = ResultStore(tmp_path / "store")
    jobs = [echo_job(i) for i in range(6)]
    for job in jobs[:2]:
        store.put_for_job(job, {"echo": job.key})
    plan = store.plan(jobs)
    assert [j.key for j in plan.cached] == [j.key for j in jobs[:2]]
    assert [j.key for j in plan.missing] == [j.key for j in jobs[2:]]
    assert plan.total == 6
    assert "2 cached, 4 missing of 6 job(s)" in plan.summary()


def test_half_cached_100_config_sweep_executes_exactly_the_missing(
    tmp_path,
):
    """The acceptance bar: plan a 100-config sweep against a store
    holding half of it; executing only ``plan.missing`` runs exactly
    the missing 50 (by the executor's own stats)."""
    store = ResultStore(tmp_path / "store")
    jobs = [echo_job(i) for i in range(100)]
    warm = run_jobs(jobs[:50], workers=1, cache=store)
    assert warm.stats.executed == 50
    plan = store.plan(jobs)
    assert len(plan.cached) == 50 and len(plan.missing) == 50
    outcome = run_jobs(plan.missing, workers=1, cache=store)
    assert outcome.stats.executed == 50
    assert outcome.stats.cached == 0
    assert store.plan(jobs).missing == []


def test_plan_collapses_duplicate_digests(tmp_path):
    store = ResultStore(tmp_path / "store")
    jobs = [echo_job(0), echo_job(0, experiment="other"), echo_job(1)]
    assert jobs[0].digest == jobs[1].digest  # experiment not in digest
    plan = store.plan(jobs)
    assert len(plan.missing) == 3
    assert len(plan.missing_digests) == 2


# ----------------------------------------------------------------------
# crash consistency and self-healing
# ----------------------------------------------------------------------
def test_corrupt_index_tail_is_skipped(tmp_path):
    store = ResultStore(tmp_path / "store")
    for i in range(3):
        store.put_for_job(echo_job(i), {"echo": i})
    # A writer killed mid-append leaves a torn final line.
    with open(store.index.path, "a") as fh:
        fh.write('{"op": "add", "digest": "dead')
    reopened = ResultStore(tmp_path / "store")
    assert len(reopened.index.entries) == 3
    assert reopened.index.corrupt_lines == 1
    # Compaction drops the damage for good.
    reopened.index.rewrite()
    again = ResultStore(tmp_path / "store")
    assert again.index.corrupt_lines == 0
    assert len(again.index.entries) == 3


def test_verify_and_reindex_heal_both_directions(tmp_path):
    store = ResultStore(tmp_path / "store")
    jobs = [echo_job(i) for i in range(4)]
    for job in jobs:
        store.put_for_job(job, {"echo": job.key})
    # Dangling row: entry file vanished behind the index's back.
    store.path_for(jobs[0].digest).unlink()
    # Unindexed entry: the raw entry file planted behind the store's
    # back (e.g. a pre-index directory, or a crash before the index
    # append).
    extra = echo_job(99)
    source = store.path_for(jobs[1].digest)
    planted = store.path_for(extra.digest)
    planted.parent.mkdir(exist_ok=True)
    planted.write_bytes(source.read_bytes())
    dangling, unindexed = store.verify_index()
    assert dangling == [jobs[0].digest]
    assert unindexed == [extra.digest]
    entries, added, dropped = store.reindex()
    assert (entries, added, dropped) == (4, 1, 1)
    assert store.verify_index() == ([], [])
    # The rebuilt index matches exactly the surviving entries, and kept
    # the metadata of the rows it already knew.
    assert sorted(store.index.entries) == store.entry_digests()
    assert store.index.entries[jobs[1].digest]["experiment"] == "store-test"


def test_get_self_heals_stale_row(tmp_path):
    store = ResultStore(tmp_path / "store")
    job = echo_job(1)
    store.put_for_job(job, {"echo": 1})
    store.path_for(job.digest).unlink()
    hit, value = store.get(job.digest)
    assert not hit and value is None
    assert job.digest not in store.index.entries


def test_index_survives_faulted_campaign(tmp_path):
    """PR 6 fault plan vs the index: after kill and corrupt faults the
    index must describe exactly the surviving entries."""
    store = ResultStore(tmp_path / "store")
    jobs = [echo_job(i) for i in range(6)]
    plan = FaultPlan.from_json(json.dumps([
        {"digest_prefix": jobs[0].digest[:16], "attempt": 1,
         "action": "kill"},
        {"digest_prefix": jobs[1].digest[:16], "attempt": 1,
         "action": "corrupt"},
    ]))
    outcome = run_jobs(
        jobs,
        workers=2,
        cache=store,
        fault_plan=plan,
        retry=RetryPolicy(max_attempts=3, backoff_base_s=0.01),
    )
    assert len(outcome.results) == 6
    assert outcome.stats.retried >= 2
    reopened = ResultStore(tmp_path / "store")
    assert reopened.verify_index() == ([], [])
    assert sorted(reopened.index.entries) == reopened.entry_digests()
    assert len(reopened.entry_digests()) == 6


def test_clear_resets_index(tmp_path):
    store = ResultStore(tmp_path / "store")
    for i in range(3):
        store.put_for_job(echo_job(i), {"echo": i})
    assert store.clear() == 3
    assert store.index.entries == {}
    assert ResultStore(tmp_path / "store").index.entries == {}


def test_payload_format_is_cache_compatible(tmp_path):
    """The entry layout, pinned literally — and the upgrade-in-place
    promise: ``fixtures/store_no_index`` was written by the pre-index
    cache class (no ``index.jsonl``), and a fresh store reads, verifies
    and reindexes it under today's digests."""
    jobs = [echo_job(1), echo_job(2)]
    values = [{"echo": v, "params": {"value": v}} for v in (1, 2)]
    written = ResultStore(tmp_path / "new").put_for_job(jobs[0], values[0])
    digest = jobs[0].digest
    assert written == tmp_path / "new" / digest[:2] / f"{digest}.pkl"
    payload = pickle.dumps(values[0], protocol=pickle.HIGHEST_PROTOCOL)
    assert written.read_bytes() == (
        b"repro-cache/1\n"
        + hashlib.sha256(payload).hexdigest().encode("ascii")
        + b"\n"
        + payload
    )

    legacy = shutil.copytree(FIXTURE, tmp_path / "legacy")
    store = ResultStore(legacy)
    assert not (legacy / "index.jsonl").exists()
    for job, value in zip(jobs, values):
        assert store.get(job.digest) == (True, value)
    assert store.verify_summary() == (2, [])
    assert store.verify_index() == ([], sorted(j.digest for j in jobs))
    assert store.reindex() == (2, 2, 0)
    assert ResultStore(legacy).verify_index() == ([], [])


def test_index_ops_are_idempotent(tmp_path):
    index = StoreIndex(tmp_path / "index.jsonl")
    index.add("a" * 64, {"experiment": "x"})
    size = index.path.stat().st_size
    index.add("a" * 64, {"experiment": "x"})  # no-op re-put
    assert index.path.stat().st_size == size
    index.remove("b" * 64)  # removing the absent is silent
    assert index.path.stat().st_size == size


def test_concurrent_puts_keep_memory_log_and_disk_in_step(tmp_path):
    """``repro serve`` puts from every request thread: 8 writers, 200
    entries, 8 of them fought over by all — no put may fail, and what
    the store remembers must be what its log replays to."""
    import sys
    import threading

    store = ResultStore(tmp_path / "store")
    own = [[echo_job(100 * k + i) for i in range(24)] for k in range(8)]
    shared = [echo_job(9000 + i) for i in range(8)]
    failures = []

    def writer(k):
        try:
            for i, job in enumerate(own[k]):
                store.put_for_job(job, {"echo": job.key})
                hot = shared[i % len(shared)]
                store.put(
                    hot.digest, {"echo": hot.key},
                    meta={**job_meta(hot), "writer": k, "round": i},
                )
        except Exception as exc:  # noqa: BLE001 — reported below
            failures.append(exc)

    threads = [threading.Thread(target=writer, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert len(store) == 200
    assert store.verify_index() == ([], [])
    assert not list(store.root.glob("*/.*.tmp"))
    reopened = ResultStore(store.root)
    assert reopened.index.corrupt_lines == 0
    assert reopened.index.entries == store.index.entries
    for job in shared:
        assert store.get(job.digest) == (True, {"echo": job.key})
