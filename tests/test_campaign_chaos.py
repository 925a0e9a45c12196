"""Chaos suite: the fault-tolerance contract of the campaign executor.

Every test drives ``run_jobs`` through a deterministic
:class:`~repro.campaign.faults.FaultPlan` — workers are killed, hung,
made to raise, or made to corrupt their results on chosen
``(digest, attempt)`` pairs — and asserts the *semantics*: a crash
costs one attempt and the merged results stay byte-identical, a hung
job dies at the timeout and retries on the seeded backoff schedule, a
poison job quarantines with its traceback while the rest of the
campaign completes, a sick pool degrades to serial, an interrupted run
resumes from the store executing only the remainder, and a quarantine
leaves exactly one record in the store, which ``resume=True`` replays
and a plain run replaces.

Jobs are ``builtins:dict`` echoes, so the suite tests the machinery,
not the simulator; a full pool spin-up is a few hundred ms.
"""

import multiprocessing
import os
import pickle
import time

import pytest

from repro.campaign import (
    Fault,
    FaultPlan,
    ResultStore,
    RetryPolicy,
    make_job,
    quarantine_report,
    run_jobs,
)
from repro.campaign.executor import _Run
from repro.campaign.faults import FAULTS_ENV
from repro.campaign.queue import SpoolQueue
from repro.campaign.store import (
    CacheCorruption,
    decode_entry,
    encode_entry,
    job_meta,
)

ECHO = "builtins:dict"


def echo_jobs(n, experiment="chaos"):
    return [
        make_job(experiment, i, ECHO, {"i": i, "payload": f"job-{i}"})
        for i in range(n)
    ]


def fast_retry(max_attempts=3):
    """Real backoff semantics, milliseconds of wall clock."""
    return RetryPolicy(max_attempts=max_attempts, backoff_base_s=0.01)


class ProgressLog:
    def __init__(self):
        self.events = []

    def __call__(self, event, job, done, total):
        self.events.append((event, job.key, done, total))

    def count(self, kind):
        return sum(1 for e in self.events if e[0] == kind)


# ----------------------------------------------------------------------
# crash isolation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("action", ["kill", "exit"])
def test_worker_crash_costs_one_attempt_merge_byte_identical(action):
    jobs = echo_jobs(6)
    victim = jobs[2].digest
    plan = FaultPlan((Fault(victim, 1, action),))

    baseline = run_jobs(jobs, workers=1, retry=fast_retry())
    assert baseline.ok

    log = ProgressLog()
    chaotic = run_jobs(
        jobs, workers=2, retry=fast_retry(), fault_plan=plan, progress=log
    )
    assert chaotic.ok
    assert chaotic.stats.retried == 1
    assert log.count("retried") == 1
    assert log.count("executed") == 6
    # The SIGKILL cost exactly one attempt; the merged results — values
    # and merge order both — match the fault-free serial run exactly.
    merged, expected = (
        o.experiment_results("chaos") for o in (chaotic, baseline)
    )
    assert list(merged) == list(expected)
    assert merged == expected


def test_crash_on_every_attempt_quarantines_without_sinking_campaign():
    jobs = echo_jobs(4)
    victim = jobs[1].digest
    plan = FaultPlan((Fault(victim, 0, "kill"),))

    outcome = run_jobs(
        jobs, workers=2, retry=fast_retry(), fault_plan=plan
    )
    assert not outcome.ok
    [failure] = outcome.failures
    assert failure.digest == victim
    assert not failure.permanent
    assert [a.kind for a in failure.attempts] == ["crash"] * 3
    assert all(a.worker_pid not in (None, os.getpid()) for a in failure.attempts)
    # Everything else completed and merged normally.
    done = outcome.experiment_results("chaos")
    assert sorted(done) == [0, 2, 3]
    assert done[3] == {"i": 3, "payload": "job-3"}


# ----------------------------------------------------------------------
# timeouts
# ----------------------------------------------------------------------
def test_hung_job_is_killed_at_timeout_and_retried():
    jobs = echo_jobs(3)
    victim = jobs[0].digest
    plan = FaultPlan((Fault(victim, 1, "hang"),))

    log = ProgressLog()
    t0 = time.monotonic()
    outcome = run_jobs(
        jobs,
        workers=2,
        retry=fast_retry(),
        timeout_s=0.5,
        fault_plan=plan,
        progress=log,
    )
    wall = time.monotonic() - t0
    assert outcome.ok
    assert outcome.stats.retried == 1
    # The hang sleeps 3600s; the supervisor killed it at ~0.5s.
    assert 0.5 <= wall < 30.0
    assert sorted(outcome.experiment_results("chaos")) == [0, 1, 2]


def test_hang_every_attempt_quarantines_as_timeouts():
    jobs = echo_jobs(2)
    victim = jobs[1].digest
    plan = FaultPlan((Fault(victim, 0, "hang"),))
    outcome = run_jobs(
        jobs,
        workers=2,
        retry=fast_retry(max_attempts=2),
        timeout_s=0.3,
        fault_plan=plan,
    )
    [failure] = outcome.failures
    assert [a.kind for a in failure.attempts] == ["timeout", "timeout"]
    assert "0.3" in failure.attempts[0].detail
    assert not failure.permanent


# ----------------------------------------------------------------------
# retry policy: classification and the seeded backoff schedule
# ----------------------------------------------------------------------
def test_transient_exception_retries_on_seeded_backoff_schedule():
    jobs = echo_jobs(3)
    victim = jobs[2].digest
    plan = FaultPlan((Fault(victim, 0, "raise"),))  # transient, every attempt
    retry = fast_retry(max_attempts=3)

    outcome = run_jobs(jobs, workers=2, retry=retry, fault_plan=plan)
    [failure] = outcome.failures
    assert not failure.permanent
    assert [a.kind for a in failure.attempts] == ["exception"] * 3
    # The recorded backoffs are exactly the policy's deterministic
    # schedule for this digest — reproducible across processes and runs.
    assert [a.backoff_s for a in failure.attempts[:-1]] == retry.schedule(victim)
    assert failure.attempts[-1].backoff_s is None
    assert "RuntimeError" in failure.traceback


def test_permanent_exception_skips_retries_entirely():
    jobs = echo_jobs(3)
    victim = jobs[0].digest
    plan = FaultPlan((Fault(victim, 0, "fail"),))  # ValueError: permanent

    log = ProgressLog()
    outcome = run_jobs(
        jobs, workers=2, retry=fast_retry(), fault_plan=plan, progress=log
    )
    [failure] = outcome.failures
    assert failure.permanent
    assert len(failure.attempts) == 1  # no retry budget burned
    assert log.count("retried") == 0
    assert "ValueError" in failure.traceback
    assert sorted(outcome.experiment_results("chaos")) == [1, 2]

    report = quarantine_report(outcome)
    assert "QUARANTINE (1 job(s))" in report
    assert "ValueError" in report
    assert "permanent" in report


def test_corrupt_payload_detected_by_checksum_and_retried(monkeypatch):
    jobs = echo_jobs(3)
    victim = jobs[1].digest
    plan = FaultPlan((Fault(victim, 1, "corrupt"),))
    log = ProgressLog()
    details = []
    retried = _Run.retried

    def noted(self, digest, record):
        details.append(record.detail)
        retried(self, digest, record)

    monkeypatch.setattr(_Run, "retried", noted)
    outcome = run_jobs(
        jobs, workers=2, retry=fast_retry(), fault_plan=plan, progress=log
    )
    assert outcome.ok
    assert outcome.stats.retried == 1
    # The corrupted payload never reached the results.
    value = {"i": 1, "payload": "job-1"}
    assert outcome.experiment_results("chaos")[1] == value
    # The reply check is the store's: the attempt failed with its message.
    entry = encode_entry(value, job_meta(jobs[1]))
    with pytest.raises(CacheCorruption) as caught:
        decode_entry(entry[:-1] + bytes([entry[-1] ^ 0xFF]))
    assert details == [str(caught.value)]
    assert details[0].startswith("metadata + payload checksum mismatch")


@pytest.mark.parametrize("workers", [1, 2], ids=["inline", "pool"])
def test_unpicklable_result_costs_attempts_not_the_campaign(tmp_path, workers):
    """On every backend — inline used to raise out of the campaign."""
    jobs = [
        make_job(
            "chaos", "closure", "repro.campaign.faults:unpicklable_result",
            {"x": 1},
        )
    ] + echo_jobs(2)
    store = ResultStore(tmp_path / "store")
    outcome = run_jobs(
        jobs, workers=workers, cache=store, retry=fast_retry(max_attempts=2)
    )
    [failure] = outcome.failures
    assert failure.key == "closure"
    assert [a.kind for a in failure.attempts] == ["unpicklable"] * 2
    assert not failure.permanent
    assert sorted(outcome.experiment_results("chaos")) == [0, 1]
    assert outcome.stats.executed == 2
    # Nothing of the failed digest reached the store.
    assert not store.contains(failure.digest)
    assert not list(store.root.glob("*/.*.tmp"))


def test_fault_plan_env_hook_round_trips(monkeypatch):
    jobs = echo_jobs(2)
    plan = FaultPlan((Fault(jobs[0].digest, 0, "fail"),))
    assert FaultPlan.from_json(plan.to_json()) == plan
    monkeypatch.setenv(FAULTS_ENV, plan.to_json())
    outcome = run_jobs(jobs, workers=2, retry=fast_retry())
    assert [f.digest for f in outcome.failures] == [jobs[0].digest]


# ----------------------------------------------------------------------
# degradation to serial
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["pool", "spool"])
def test_pool_sickness_degrades_to_serial_and_completes(tmp_path, backend):
    jobs = echo_jobs(5)
    # Every assignment kills its worker: the backend can never make
    # progress.  max_attempts exceeds the death threshold, so no digest
    # can quarantine before it gives up; the spool's default 30 s lease
    # means no reclaim counts as progress either.
    plan = FaultPlan((Fault("", 0, "kill"),))
    how = dict(workers=2)
    if backend == "spool":
        spool = tmp_path / "spool"
        how = dict(queue=SpoolQueue(
            spool, ResultStore(tmp_path / "store"), workers=2
        ))
    outcome = run_jobs(
        jobs, retry=fast_retry(max_attempts=5), fault_plan=plan, **how
    )
    # Degraded to in-process execution, where fault plans do not apply:
    # the campaign still completed every job.
    assert outcome.stats.degraded_reason is not None
    assert "worker deaths" in outcome.stats.degraded_reason
    assert outcome.ok
    assert sorted(outcome.experiment_results("chaos")) == [0, 1, 2, 3, 4]
    assert "degraded" in outcome.stats.summary()
    if backend == "spool":
        assert not any((spool / "jobs").iterdir())
        assert not any((spool / "claims").iterdir())
    assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# interrupt and resume
# ----------------------------------------------------------------------
class InterruptAfter:
    """Progress hook that raises KeyboardInterrupt after N completions."""

    def __init__(self, n):
        self.n = n
        self.inner = ProgressLog()

    def __call__(self, event, job, done, total):
        self.inner(event, job, done, total)
        if event in ("executed", "cached") and done >= self.n:
            raise KeyboardInterrupt


@pytest.mark.parametrize("workers", [1, 2])
def test_interrupt_flushes_finished_results_and_reports_partial(
    tmp_path, workers
):
    jobs = echo_jobs(6)
    cache = ResultStore(tmp_path / "cache")
    outcome = run_jobs(
        jobs,
        workers=workers,
        cache=cache,
        retry=fast_retry(),
        progress=InterruptAfter(2),
    )
    assert outcome.stats.interrupted
    assert not outcome.ok
    assert outcome.stats.wall_s > 0.0
    assert "interrupted" in outcome.stats.summary()
    finished = outcome.experiment_results("chaos")
    assert len(finished) >= 2
    # Every finished digest was flushed to the cache before the
    # interrupt surfaced.
    for job in jobs:
        if job.key in finished:
            hit, value = cache.get(job.digest)
            assert hit and value == finished[job.key]


def records(cache, suffix):
    """Digests with a file of this kind in the store, sorted."""
    return sorted(p.stem for p in cache.root.glob(f"??/*.{suffix}"))


def test_resume_executes_only_the_remainder(tmp_path):
    jobs = echo_jobs(6)
    cache = ResultStore(tmp_path / "cache")

    first = run_jobs(
        jobs,
        workers=1,
        cache=cache,
        retry=fast_retry(),
        progress=InterruptAfter(2),
    )
    assert first.stats.interrupted
    done_first = first.stats.executed
    assert 0 < done_first < 6

    # Resume: the store alone knows what completed — one entry per
    # finished job, nothing else — so only the remainder executes and
    # the merged outcome covers the full campaign.
    assert len(records(cache, "pkl")) == done_first
    assert records(cache, "failed") == []
    log = ProgressLog()
    second = run_jobs(
        jobs,
        workers=1,
        cache=cache,
        retry=fast_retry(),
        resume=True,
        progress=log,
    )
    assert second.ok
    assert log.count("executed") == 6 - done_first
    assert log.count("cached") == done_first
    assert sorted(second.experiment_results("chaos")) == list(range(6))


def test_resume_skips_known_failures_without_burning_attempts(tmp_path):
    jobs = echo_jobs(4)
    victim = jobs[3].digest
    plan = FaultPlan((Fault(victim, 0, "fail"),))
    cache = ResultStore(tmp_path / "cache")

    first = run_jobs(
        jobs, workers=2, cache=cache, retry=fast_retry(), fault_plan=plan
    )
    assert [f.digest for f in first.failures] == [victim]

    # --resume semantics: the stored quarantine record is replayed (with
    # its recorded attempts) and nothing is re-executed.
    assert records(cache, "failed") == [victim]
    log = ProgressLog()
    second = run_jobs(
        jobs,
        workers=2,
        cache=cache,
        retry=fast_retry(),
        fault_plan=plan,
        resume=True,
        progress=log,
    )
    assert log.count("executed") == 0
    assert log.count("skipped") == 1
    assert second.stats.skipped == 1
    [replayed] = second.failures
    assert replayed.digest == victim
    assert replayed.permanent
    assert [a.kind for a in replayed.attempts] == ["exception"]
    assert records(cache, "failed") == [victim]


def test_quarantine_is_one_record_until_a_plain_run_succeeds(tmp_path):
    jobs = echo_jobs(3)
    victim = jobs[1].digest
    cache = ResultStore(tmp_path / "cache")
    plan = FaultPlan((Fault(victim, 0, "raise"),))
    first = run_jobs(
        jobs, workers=2, cache=cache, retry=fast_retry(), fault_plan=plan
    )
    [failure] = first.failures
    # Exactly one record per attempted digest: the victim's is its
    # quarantine record, with no entry beside it.
    assert records(cache, "failed") == [victim]
    assert victim not in records(cache, "pkl")
    assert len(records(cache, "pkl")) == 2
    stored = cache.failure(victim)
    assert (stored.label, stored.attempts, stored.traceback) == (
        failure.label, failure.attempts, failure.traceback,
    )
    assert [a.kind for a in stored.attempts] == ["exception"] * 3

    # A plain rerun attempts it again; success leaves the entry alone.
    second = run_jobs(jobs, workers=2, cache=cache, retry=fast_retry())
    assert second.ok and second.stats.executed == 1
    assert records(cache, "failed") == []
    assert sorted(records(cache, "pkl")) == sorted(j.digest for j in jobs)


def test_resume_skips_a_digest_another_job_list_quarantined(tmp_path):
    """Records are keyed by job digest, not by campaign: a resumed run
    of a different job list still replays the shared digest's record."""
    jobs = echo_jobs(5)
    victim = jobs[2].digest
    plan = FaultPlan((Fault(victim, 0, "fail"),))
    cache = ResultStore(tmp_path / "cache")
    run_jobs(
        jobs[:3], workers=2, cache=cache, retry=fast_retry(), fault_plan=plan
    )
    log = ProgressLog()
    resumed = run_jobs(
        jobs[1:], workers=2, cache=cache, retry=fast_retry(), resume=True,
        progress=log,
    )
    assert [f.digest for f in resumed.failures] == [victim]
    assert (resumed.stats.skipped, resumed.stats.executed) == (1, 2)
    assert (resumed.stats.cached, log.count("skipped")) == (1, 1)
    assert sorted(resumed.experiment_results("chaos")) == [1, 3, 4]


# ----------------------------------------------------------------------
# cache integrity under chaos
# ----------------------------------------------------------------------
def test_corrupted_cache_entry_is_a_miss_and_reexecutes(tmp_path):
    jobs = echo_jobs(2)
    cache = ResultStore(tmp_path / "cache")
    run_jobs(jobs, workers=1, cache=cache)

    # Flip one byte of one entry's payload: the checksum catches it.
    path = cache.path_for(jobs[0].digest)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))

    total, bad = ResultStore(tmp_path / "cache").verify_summary()
    assert total == 2
    assert [(d, s) for d, s, _ in bad] == [(jobs[0].digest, "corrupt")]

    log = ProgressLog()
    warm = run_jobs(jobs, workers=1, cache=cache, progress=log)
    assert warm.ok
    assert log.count("cached") == 1  # the intact entry
    assert log.count("executed") == 1  # the corrupted one, refreshed
    hit, value = cache.get(jobs[0].digest)
    assert hit and value == {"i": 0, "payload": "job-0"}


def test_stale_tmp_files_swept_on_open(tmp_path):
    root = tmp_path / "cache"
    cache = ResultStore(root)
    cache.put("ab" + "0" * 62, {"x": 1})

    sub = root / "ab"
    dead = sub / ".entry.pkl.999999.tmp"  # pid that cannot be alive
    dead.write_bytes(b"orphaned partial write")
    live = sub / f".entry.pkl.{os.getpid()}.tmp"  # a live writer's temp
    live.write_bytes(b"in-flight write")

    reopened = ResultStore(root)
    assert reopened.swept_tmp == 1
    assert not dead.exists()
    assert live.exists()  # never yank a live writer's temp
    hit, _ = reopened.get("ab" + "0" * 62)
    assert hit


# ----------------------------------------------------------------------
# determinism of the machinery itself
# ----------------------------------------------------------------------
def test_chaotic_campaign_is_deterministic_end_to_end():
    jobs = echo_jobs(5)
    plan = FaultPlan(
        (
            Fault(jobs[0].digest, 1, "kill"),
            Fault(jobs[2].digest, 0, "raise"),
            Fault(jobs[4].digest, 1, "corrupt"),
        )
    )

    def one_run():
        out = run_jobs(
            jobs, workers=2, retry=fast_retry(), fault_plan=plan
        )
        return (
            pickle.dumps(out.experiment_results("chaos")),
            [(f.digest, [a.kind for a in f.attempts]) for f in out.failures],
            out.stats.retried,
        )

    assert one_run() == one_run()
