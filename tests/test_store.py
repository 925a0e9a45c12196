"""The result store: entries that carry their own metadata, queries
over their headers, planning, self-healing, and quarantine records.

An entry file is the only record of a result, so every test here
checks the entries themselves: queries must answer from entry headers
without unpickling a single payload, every store open on a root must
see every put made through any other, and damage (a truncated entry, a
vanished file, a killed writer mid-campaign) must leave queries
describing exactly the surviving entries.
"""

import hashlib
import json
import pickle
import shutil
from pathlib import Path

import pytest

from repro.campaign.cli import main as campaign_main
from repro.campaign.executor import run_jobs
from repro.campaign.faults import FaultPlan
from repro.campaign.job import make_job
from repro.campaign.policy import AttemptRecord, JobFailure, RetryPolicy
from repro.campaign.store import (
    CACHE_DIR_ENV,
    DEFAULT_CACHE_DIRNAME,
    ResultStore,
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
# query + stat, from the entries' headers
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
    assert reopened.stat(echo_job(0).digest)["experiment"] == "store-test"


def test_stat_reports_size_and_meta(tmp_path):
    store = ResultStore(tmp_path / "store")
    job = echo_job("x", seed=7)
    store.put_for_job(job, {"echo": "x"})
    st = store.stat(job.digest)
    path = store.path_for(job.digest)
    assert st == {
        "digest": job.digest,
        "size_bytes": path.stat().st_size,
        "mtime": path.stat().st_mtime,
        **job_meta(job),
    }
    assert st["seed"] == 7 and st["experiment"] == "store-test"
    assert store.stat("f" * 64) is None
    # A bare put carries no metadata: the file facts alone.
    store.put("e" * 64, {"bare": True})
    assert set(store.stat("e" * 64)) == {"digest", "size_bytes", "mtime"}
    assert store.query() == sorted(
        [(job.digest, job_meta(job)), ("e" * 64, {})]
    )


def test_a_second_store_on_the_root_sees_every_put(tmp_path):
    """A long-lived store (``repro serve``'s) must list what another
    process put after it opened: there is no copy of the metadata to
    fall out of step."""
    early = ResultStore(tmp_path / "store")
    assert early.query() == []
    job = echo_job("late", seed=4)
    ResultStore(tmp_path / "store").put_for_job(job, {"echo": "late"})
    assert early.query(seed=4) == [(job.digest, job_meta(job))]
    assert early.stat(job.digest)["experiment"] == "store-test"
    assert early.get(job.digest) == (True, {"echo": "late"})


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
def test_torn_entry_is_skipped_by_query(tmp_path):
    """An entry cut short inside its header (a full disk, a copy that
    died) has no metadata to list: queries skip it, ``get`` drops it,
    the rest stay listed."""
    store = ResultStore(tmp_path / "store")
    jobs = [echo_job(i) for i in range(3)]
    for job in jobs:
        store.put_for_job(job, {"echo": job.key})
    path = store.path_for(jobs[0].digest)
    blob = path.read_bytes()
    path.write_bytes(blob[: blob.index(b'"experiment"')])
    survivors = sorted(job.digest for job in jobs[1:])
    assert [d for d, _ in store.query()] == survivors
    assert store.get(jobs[0].digest) == (False, None)
    assert store.entry_digests() == survivors


def test_query_follows_the_entry_files_both_ways(tmp_path):
    """A vanished entry leaves no row behind, and an entry file planted
    behind the store's back is listed with the metadata it carries."""
    store = ResultStore(tmp_path / "store")
    jobs = [echo_job(i) for i in range(4)]
    for job in jobs:
        store.put_for_job(job, {"echo": job.key})
    store.path_for(jobs[0].digest).unlink()
    elsewhere = ResultStore(tmp_path / "elsewhere")
    extra = echo_job(99, seed=9)
    shutil.copytree(
        elsewhere.put_for_job(extra, {"echo": "x"}).parent,
        store.path_for(extra.digest).parent, dirs_exist_ok=True,
    )
    rows = store.query()
    assert [d for d, _ in rows] == store.entry_digests()
    assert jobs[0].digest not in dict(rows)
    assert dict(rows)[extra.digest] == job_meta(extra)
    assert store.query(seed=9) == [(extra.digest, job_meta(extra))]


def test_get_self_heals_stale_row(tmp_path):
    """A corrupt entry is a miss that ``get`` drops: no query lists it
    afterwards, and the next put refreshes it."""
    store = ResultStore(tmp_path / "store")
    job = echo_job(1)
    store.put_for_job(job, {"echo": 1})
    path = store.path_for(job.digest)
    path.write_bytes(path.read_bytes()[:-1])
    assert [d for d, _ in store.query()] == [job.digest]  # header intact
    hit, value = store.get(job.digest)
    assert not hit and value is None
    assert not path.exists()
    assert store.query() == [] and store.stat(job.digest) is None
    store.put_for_job(job, {"echo": 1})
    assert store.get(job.digest) == (True, {"echo": 1})


def test_index_survives_faulted_campaign(tmp_path):
    """PR 6 fault plan vs the store: after kill and corrupt faults,
    ``query`` lists exactly the surviving entries, each with its job's
    metadata."""
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
    assert reopened.query() == sorted(
        (job.digest, job_meta(job)) for job in jobs
    )
    assert reopened.verify_summary() == (6, [])


def test_payload_format_is_cache_compatible(tmp_path):
    """The entry layout, pinned literally — and the upgrade rule:
    ``fixtures/store_no_index`` holds two entries of the previous
    layout (``repro-cache/1``, no metadata line).  There is no reader
    for it: each is a miss that ``get`` drops, and a rerun refreshes
    it under the same digest."""
    jobs = [echo_job(1), echo_job(2)]
    values = [{"echo": v, "params": {"value": v}} for v in (1, 2)]
    written = ResultStore(tmp_path / "new").put_for_job(jobs[0], values[0])
    digest = jobs[0].digest
    assert written == tmp_path / "new" / digest[:2] / f"{digest}.pkl"
    meta = (
        b'{"executor": "repro.campaign.faults:echo", '
        b'"experiment": "store-test", "family": "store-test", '
        b'"key": "key-1", "seed": null}'
    )
    body = meta + b"\n" + pickle.dumps(
        values[0], protocol=pickle.HIGHEST_PROTOCOL
    )
    assert written.read_bytes() == (
        b"repro-cache/2\n"
        + hashlib.sha256(body).hexdigest().encode("ascii")
        + b"\n"
        + body
    )

    legacy = shutil.copytree(FIXTURE, tmp_path / "legacy")
    store = ResultStore(legacy)
    assert store.entry_digests() == sorted(j.digest for j in jobs)
    assert store.query() == []
    assert store.get(jobs[0].digest) == (False, None)  # a miss, dropped
    assert store.entry_digests() == [jobs[1].digest]
    verify = ["verify-cache", "--cache-dir", str(legacy)]
    assert campaign_main(verify) == 1
    assert campaign_main(verify + ["--purge"]) == 1
    assert store.entry_digests() == []
    assert campaign_main(verify) == 0
    outcome = run_jobs(jobs, workers=1, cache=store)
    assert outcome.stats.executed == 2  # each v1 entry re-runs once
    assert [outcome.results[job] for job in jobs] == values
    assert store.verify_summary() == (2, [])
    assert run_jobs(jobs, workers=1, cache=store).stats.executed == 0
    assert not (legacy / "index.jsonl").exists()


def test_re_put_is_idempotent(tmp_path):
    """Putting a result again rewrites the same bytes under the same
    name: one entry, one row, nothing else on disk."""
    store = ResultStore(tmp_path / "store")
    job = echo_job(1)
    blob = store.put_for_job(job, {"echo": 1}).read_bytes()
    store.put_for_job(job, {"echo": 1})
    assert store.path_for(job.digest).read_bytes() == blob
    assert store.query() == [(job.digest, job_meta(job))]
    assert sorted(p.name for p in store.root.rglob("*")) == sorted(
        [job.digest[:2], f"{job.digest}.pkl"]
    )


def test_concurrent_puts_keep_memory_log_and_disk_in_step(tmp_path):
    """``repro serve`` puts from every request thread: 8 writers, 200
    entries, 8 of them fought over by all — no put may fail, every
    entry must verify whole, and no temp file may be left behind."""
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
    rows = ResultStore(store.root).query()
    assert len(rows) == 200
    assert store.verify_summary() == (200, [])
    assert not list(store.root.glob("*/.*.tmp"))
    for job in shared:
        assert store.get(job.digest) == (True, {"echo": job.key})
        assert dict(rows)[job.digest]["experiment"] == "store-test"


# ----------------------------------------------------------------------
# quarantine records
# ----------------------------------------------------------------------
def quarantined(job):
    return JobFailure.for_job(
        job,
        [AttemptRecord(1, "exception", "ValueError: boom", 4242)],
        "Traceback ...\nValueError: boom\n",
        permanent=True,
    )


def test_quarantine_record_sits_beside_the_entries(tmp_path):
    """One sorted-keys JSON line under the digest; listing, queries and
    verification see entries only."""
    store = ResultStore(tmp_path / "store")
    job, other = echo_job(1), echo_job(2)
    store.put_for_job(other, {"echo": 2})
    failure = quarantined(job)
    store.put_failure(failure)
    path = store.root / job.digest[:2] / f"{job.digest}.failed"
    assert path.read_text() == (
        json.dumps(failure.to_dict(), sort_keys=True) + "\n"
    )
    assert store.failure(job.digest) == JobFailure.from_dict(
        failure.to_dict()
    )
    # A result always wins: no record is written beside an entry.
    store.put_failure(quarantined(other))
    assert store.failure(other.digest) is None
    assert store.entry_digests() == [other.digest] and len(store) == 1
    assert [d for d, _ in store.query()] == [other.digest]
    assert store.verify_summary() == (1, [])
    assert not store.contains(job.digest)
    assert store.drop_failure(job.digest)
    assert store.failure(job.digest) is None
    assert not store.drop_failure(job.digest)


@pytest.mark.parametrize(
    "torn",
    [b"", b'{"attempts": [], "dig', b"[1, 2]\n", b'{"digest": "x"}\n',
     b'{"digest": "x", "experiment": "e", "key": "k", "label": "l", '
     b'"attempts": [7]}\n'],
    ids=["empty", "cut", "list", "partial", "bad-attempt"],
)
def test_torn_quarantine_record_reads_as_none_and_reruns(tmp_path, torn):
    """The safe direction: a record that does not parse is no record,
    so even ``resume=True`` attempts the job, and its outcome replaces
    the damaged file."""
    store = ResultStore(tmp_path / "store")
    job = echo_job(1)
    store.put_failure(quarantined(job))
    (store.root / job.digest[:2] / f"{job.digest}.failed").write_bytes(torn)
    assert store.failure(job.digest) is None
    outcome = run_jobs([job], workers=1, cache=store, resume=True)
    assert outcome.ok and outcome.stats.executed == 1
    assert sorted(p.name for p in store.root.rglob("*")) == sorted(
        [job.digest[:2], f"{job.digest}.pkl"]
    )
