"""Filesystem spool backend: multi-process drain, leases, reclaim.

The spool lets any number of independent worker processes drain one
campaign through a shared directory.  These tests prove the contract
the pool backend already honours: identical results (byte-for-byte in
the store), identical retry/backoff/quarantine policy, and survival of
a worker killed mid-job via lease-expiry reclaim.
"""

import json
import os
import time

from repro.campaign import queue as q
from repro.campaign.executor import run_jobs
from repro.campaign.faults import FaultPlan
from repro.campaign.job import make_job
from repro.campaign.policy import RetryPolicy
from repro.campaign.store import ResultStore

ECHO = "repro.campaign.faults:echo"


def echo_jobs(n, experiment="spool-test"):
    return [
        make_job(experiment, f"key-{i}", ECHO, {"value": i})
        for i in range(n)
    ]


def fast_retry(attempts=3):
    return RetryPolicy(
        max_attempts=attempts, backoff_base_s=0.01, jitter_frac=0.0
    )


# ----------------------------------------------------------------------
# protocol pieces
# ----------------------------------------------------------------------
def test_enqueue_claim_release_cycle(tmp_path):
    store_root = tmp_path / "store"
    root = tmp_path / "spool"
    cfg = q.SpoolConfig(store_root=str(store_root), retry=fast_retry())
    jobs = echo_jobs(2)
    assert q.enqueue(root, cfg, [(j.digest, j) for j in jobs]) == 2
    assert not q.spool_drained(root)
    status, digest, job, claim = q.claim_next(root)
    assert status == "claimed"
    assert digest == min(j.digest for j in jobs)  # digest order
    assert job.executor == ECHO
    # While one job is leased the other is still claimable, and a
    # second claim of the same digest cannot happen.
    status2, digest2, _, claim2 = q.claim_next(root)
    assert status2 == "claimed" and digest2 != digest
    assert q.claim_next(root)[0] == "wait"  # all leased, none ready
    q._release(claim)
    q._release(claim2)
    assert q.spool_drained(root)


def test_config_round_trips_policy(tmp_path):
    plan = FaultPlan.from_json(
        '[{"digest_prefix": "ab", "attempt": 2, "action": "raise"}]'
    )
    cfg = q.SpoolConfig(
        store_root=str(tmp_path / "store"),
        retry=fast_retry(attempts=5),
        timeout_s=12.5,
        fault_plan=plan,
        lease_s=3.0,
    )
    root = q.init_spool(tmp_path / "spool")
    q.save_config(root, cfg)
    loaded = q.load_config(root)
    assert loaded.retry.max_attempts == 5
    assert loaded.timeout_s == 12.5
    assert loaded.lease_s == 3.0
    assert loaded.fault_plan.faults == plan.faults
    assert loaded.store_root == cfg.store_root


def test_process_one_executes_and_stores(tmp_path):
    store = ResultStore(tmp_path / "store")
    root = tmp_path / "spool"
    cfg = q.SpoolConfig(store_root=str(store.root), retry=fast_retry())
    job = echo_jobs(1)[0]
    q.enqueue(root, cfg, [(job.digest, job)])
    assert q.process_one(root, cfg, store) == "done"
    assert q.process_one(root, cfg, store) == "empty"
    hit, value = store.get(job.digest)
    assert hit and value["echo"] == 0
    # The worker's put carried the job metadata into the entry.
    assert store.stat(job.digest)["experiment"] == "spool-test"


def test_worker_loop_drains_spool(tmp_path):
    store = ResultStore(tmp_path / "store")
    root = tmp_path / "spool"
    cfg = q.SpoolConfig(store_root=str(store.root), retry=fast_retry())
    jobs = echo_jobs(4)
    q.enqueue(root, cfg, [(j.digest, j) for j in jobs])
    processed = q.worker_loop(
        root, idle_exit_s=0.1, as_worker=False
    )
    assert processed == 4
    assert q.spool_drained(root)
    assert all(store.contains(j.digest) for j in jobs)


# ----------------------------------------------------------------------
# lease expiry: an interrupted worker's jobs are reclaimed
# ----------------------------------------------------------------------
def test_reclaim_books_crash_attempt_and_requeues(tmp_path):
    store_root = tmp_path / "store"
    root = tmp_path / "spool"
    cfg = q.SpoolConfig(
        store_root=str(store_root), retry=fast_retry(), lease_s=0.1
    )
    job = echo_jobs(1)[0]
    q.enqueue(root, cfg, [(job.digest, job)])
    status, digest, _, claim = q.claim_next(root)
    assert status == "claimed"
    # Simulate the claimant dying mid-job: a heartbeat file that will
    # never be touched again, stamped with a pid that no longer runs.
    hb = claim.with_suffix(".hb")
    hb.write_text(json.dumps({"pid": 99999999, "attempt": 1}))
    stale = time.time() - 1.0
    os.utime(claim, (stale, stale))
    os.utime(hb, (stale, stale))
    assert q.reclaim_expired(root, cfg) == 1
    # The crash was booked as attempt 1 and the job is ready again.
    lines = q._attempt_lines(root, digest)
    assert len(lines) == 1
    assert lines[0]["kind"] == "crash"
    assert "presumed dead" in lines[0]["detail"]
    # Requeued with retry backoff: not ready instantly, ready soon.
    status2, digest2, _, claim2 = q.claim_next(root, now=time.time() + 5)
    assert status2 == "claimed" and digest2 == digest
    q._release(claim2)


def test_long_queued_job_is_not_reclaimed_at_claim_time(tmp_path):
    """os.rename preserves mtime, so a claim of a job that sat queued
    longer than lease_s would look instantly expired in the window
    before the heartbeat exists; claim_next must re-stamp it."""
    cfg = q.SpoolConfig(
        store_root=str(tmp_path / "store"),
        retry=fast_retry(),
        lease_s=0.2,
    )
    root = tmp_path / "spool"
    job = echo_jobs(1)[0]
    q.enqueue(root, cfg, [(job.digest, job)])
    envelope = q._dirs(q.init_spool(root))["jobs"] / f"{job.digest}.job"
    stale = time.time() - 10.0
    os.utime(envelope, (stale, stale))
    status, _, _, claim = q.claim_next(root)
    assert status == "claimed"
    # No heartbeat yet — the lease must still count as fresh.
    assert q.reclaim_expired(root, cfg) == 0
    assert claim.exists()
    q._release(claim)


def test_interrupted_reclaim_is_itself_reclaimed(tmp_path):
    """A reclaimer that dies between its rename and the booking leaves
    '<digest>.job.reclaim.<pid>' behind; the envelope must stay visible
    as pending work and be swept back into play, not lost forever."""
    cfg = q.SpoolConfig(
        store_root=str(tmp_path / "store"),
        retry=fast_retry(),
        lease_s=0.1,
    )
    root = tmp_path / "spool"
    job = echo_jobs(1)[0]
    q.enqueue(root, cfg, [(job.digest, job)])
    status, digest, _, claim = q.claim_next(root)
    assert status == "claimed"
    stranded = claim.with_name(f"{claim.name}.reclaim.99999999")
    os.rename(claim, stranded)
    stale = time.time() - 1.0
    os.utime(stranded, (stale, stale))
    assert not q.spool_drained(root)
    assert q.claim_next(root)[0] == "wait"
    assert q.reclaim_expired(root, cfg) == 1
    lines = q._attempt_lines(root, digest)
    assert len(lines) == 1 and lines[0]["kind"] == "crash"
    status2, digest2, _, claim2 = q.claim_next(root, now=time.time() + 5)
    assert status2 == "claimed" and digest2 == digest
    q._release(claim2)


def test_lease_timeout_spares_a_coordinating_process(tmp_path, monkeypatch):
    """With in_worker unset (a participate=True coordinator claiming
    in-process), a job overrunning timeout_s books the timeout attempt
    and releases the claim but must NOT os._exit the whole process."""
    from repro.campaign import faults as faults_mod

    monkeypatch.setattr(faults_mod, "in_worker", False)
    cfg = q.SpoolConfig(
        store_root=str(tmp_path / "store"),
        retry=fast_retry(),
        timeout_s=0.05,
        lease_s=5.0,
    )
    root = q.init_spool(tmp_path / "spool")
    job = echo_jobs(1)[0]
    q.enqueue(root, cfg, [(job.digest, job)])
    status, digest, claimed_job, claim = q.claim_next(root)
    assert status == "claimed"
    lease = q._Lease(root, cfg, digest, claimed_job, 1, claim)
    lease.interval = 0.02
    lease.start()
    deadline = time.time() + 5.0
    while time.time() < deadline and not q._attempt_lines(root, digest):
        time.sleep(0.01)
    lease.release()
    # Reaching this line at all is the point: the process survived.
    lines = q._attempt_lines(root, digest)
    assert len(lines) == 1 and lines[0]["kind"] == "timeout"
    assert "released the claim" in lines[0]["detail"]
    assert not claim.exists()  # requeued for another participant


def test_live_lease_is_not_reclaimed(tmp_path):
    cfg = q.SpoolConfig(
        store_root=str(tmp_path / "store"),
        retry=fast_retry(),
        lease_s=30.0,
    )
    root = tmp_path / "spool"
    job = echo_jobs(1)[0]
    q.enqueue(root, cfg, [(job.digest, job)])
    status, _, _, claim = q.claim_next(root)
    assert status == "claimed"
    assert q.reclaim_expired(root, cfg) == 0  # fresh mtime = live
    q._release(claim)


def test_crash_reclaim_exhaustion_quarantines(tmp_path):
    """Every attempt dies without a heartbeat -> quarantine record in
    the result store, exactly like the pool's crash-retry exhaustion."""
    store_root = tmp_path / "store"
    root = tmp_path / "spool"
    cfg = q.SpoolConfig(
        store_root=str(store_root),
        retry=fast_retry(attempts=2),
        lease_s=0.05,
    )
    job = echo_jobs(1)[0]
    q.enqueue(root, cfg, [(job.digest, job)])
    for _ in range(2):
        # Future 'now' skips over the retry backoff of the requeue.
        status, digest, _, claim = q.claim_next(root, now=time.time() + 5)
        assert status == "claimed"
        stale = time.time() - 1.0
        os.utime(claim, (stale, stale))
        assert q.reclaim_expired(root, cfg) == 1
    store = ResultStore(store_root)
    failure = store.failure(job.digest)
    assert failure is not None
    assert len(failure.attempts) == 2
    assert all(a.kind == "crash" for a in failure.attempts)
    assert not store.contains(job.digest)
    assert q.claim_next(root)[0] == "empty"  # not requeued
    assert sorted(p.name for p in root.iterdir()) == [
        "attempts", "claims", "jobs", "policy.json",
    ]


# ----------------------------------------------------------------------
# SpoolQueue through run_jobs: parity with the pool backend
# ----------------------------------------------------------------------
def test_two_workers_drain_byte_identical_to_serial(tmp_path):
    jobs = echo_jobs(6)
    serial_store = ResultStore(tmp_path / "serial")
    serial = run_jobs(jobs, workers=1, cache=serial_store)
    assert serial.stats.executed == 6

    spool_store = ResultStore(tmp_path / "spool-store")
    outcome = run_jobs(
        jobs,
        cache=spool_store,
        queue=q.SpoolQueue(tmp_path / "spool", spool_store, workers=2),
    )
    assert outcome.stats.executed == 6
    assert outcome.stats.failed == 0
    for job in jobs:
        assert outcome.results[job] == serial.results[job]
        # Byte-for-byte: same checksummed entry whichever path ran it.
        assert (
            spool_store.path_for(job.digest).read_bytes()
            == serial_store.path_for(job.digest).read_bytes()
        )
    assert q.spool_drained(tmp_path / "spool")


def test_each_outcome_is_written_once_by_the_worker_that_ran_it(
    tmp_path, monkeypatch
):
    """The coordinator only reports what a worker stored: every entry
    and quarantine record is still the file the worker's rename landed
    (spawned workers inherit the recording patch by fork)."""
    landed = tmp_path / "landed.jsonl"
    put_entry = ResultStore.put_entry
    put_failure = ResultStore.put_failure
    coordinator = os.getpid()

    def note(path):
        if os.getpid() != coordinator:
            with open(landed, "a") as fh:
                fh.write(json.dumps([path.name, path.stat().st_ino]) + "\n")
        return path

    def noted_put_failure(self, failure):
        put_failure(self, failure)
        note(self._failure_path(failure.digest))

    monkeypatch.setattr(
        ResultStore, "put_entry",
        lambda self, digest, entry: note(put_entry(self, digest, entry)),
    )
    monkeypatch.setattr(ResultStore, "put_failure", noted_put_failure)
    jobs = echo_jobs(4)
    plan = FaultPlan.from_json(json.dumps([
        {"digest_prefix": jobs[0].digest[:16], "attempt": 0,
         "action": "fail"},
    ]))
    store = ResultStore(tmp_path / "store")
    outcome = run_jobs(
        jobs,
        cache=store,
        retry=fast_retry(),
        fault_plan=plan,
        queue=q.SpoolQueue(tmp_path / "spool", store, workers=2),
    )
    assert (outcome.stats.executed, outcome.stats.failed) == (3, 1)
    on_disk = {
        p.name: p.stat().st_ino
        for p in store.root.glob("??/*")
        if p.suffix in (".pkl", ".failed")
    }
    lines = [json.loads(line) for line in landed.read_text().splitlines()]
    assert dict(lines) == on_disk
    assert len(lines) == len(on_disk) == 4


def test_clean_drain_waits_for_workers_to_release_their_claims(
    tmp_path, monkeypatch
):
    # A result is visible before the worker that stored it releases its
    # claim; widen that window (spawned workers inherit the patch by fork).
    release = q._release

    def slow_release(claim_path):
        time.sleep(0.3)
        release(claim_path)

    monkeypatch.setattr(q, "_release", slow_release)
    store = ResultStore(tmp_path / "store")
    outcome = run_jobs(
        echo_jobs(6),
        cache=store,
        queue=q.SpoolQueue(tmp_path / "spool", store, workers=2),
    )
    assert outcome.stats.executed == 6
    assert q.spool_drained(tmp_path / "spool")
    assert os.listdir(tmp_path / "spool" / "claims") == []


def test_spool_survives_injected_worker_kill(tmp_path):
    jobs = echo_jobs(4)
    plan = FaultPlan.from_json(json.dumps([
        {"digest_prefix": jobs[0].digest[:16], "attempt": 1,
         "action": "kill"},
    ]))
    store = ResultStore(tmp_path / "store")
    outcome = run_jobs(
        jobs,
        cache=store,
        retry=fast_retry(),
        fault_plan=plan,
        queue=q.SpoolQueue(
            tmp_path / "spool", store, workers=2, lease_s=0.5
        ),
    )
    assert outcome.stats.executed == 4
    assert outcome.stats.retried >= 1
    assert outcome.stats.failed == 0
    assert len(outcome.results) == 4


def test_spool_quarantines_permanent_failure(tmp_path):
    jobs = echo_jobs(3)
    plan = FaultPlan.from_json(json.dumps([
        {"digest_prefix": jobs[1].digest[:16], "attempt": 0,
         "action": "fail"},
    ]))
    store = ResultStore(tmp_path / "store")
    outcome = run_jobs(
        jobs,
        cache=store,
        retry=fast_retry(),
        fault_plan=plan,
        queue=q.SpoolQueue(tmp_path / "spool", store, workers=2),
    )
    assert outcome.stats.executed == 2
    assert outcome.stats.failed == 1
    (failure,) = outcome.failures
    assert failure.digest == jobs[1].digest
    assert failure.permanent
    assert failure.attempts[-1].kind == "exception"


def test_warm_spool_rerun_executes_nothing(tmp_path):
    jobs = echo_jobs(5)
    store = ResultStore(tmp_path / "store")
    first = run_jobs(
        jobs,
        cache=store,
        queue=q.SpoolQueue(tmp_path / "spool", store, workers=2),
    )
    assert first.stats.executed == 5
    second = run_jobs(
        jobs,
        cache=store,
        queue=q.SpoolQueue(tmp_path / "spool2", store, workers=2),
    )
    assert second.stats.executed == 0
    assert second.stats.cached == 5
    assert second.results == first.results


def test_external_worker_drains_coordinator_spool(tmp_path):
    """A coordinator with zero spawned workers + one external
    worker_loop process stand-in: the 'many independent repro campaign
    worker processes' topology, in-process for speed."""
    import threading

    jobs = echo_jobs(3)
    store = ResultStore(tmp_path / "store")
    spool = tmp_path / "spool"

    def external():
        # Polls until the coordinator's enqueue appears, then drains.
        q.worker_loop(spool, idle_exit_s=2.0, as_worker=False)

    helper = threading.Thread(target=external, daemon=True)
    helper.start()
    outcome = run_jobs(
        jobs,
        cache=store,
        queue=q.SpoolQueue(spool, store, workers=0, participate=True),
    )
    helper.join(timeout=10)
    assert outcome.stats.executed == 3
    assert len(outcome.results) == 3
