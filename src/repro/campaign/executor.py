"""Fault-tolerant campaign execution: one path, three backends.

``run_jobs`` takes jobs from any mix of experiments and returns their
results merged *by job key*, never by completion order, so a parallel
campaign is byte-identical to an inline one.  Along the way it:

* coalesces duplicate configs — jobs sharing a digest (e.g. fig3's and
  fig9's 1-vs-11 FIFO uplink run) execute once and fan back out;
* consults the :class:`~repro.campaign.store.ResultStore` before
  spending any CPU, unless ``force`` invalidates;
* survives failure: worker crashes, hung jobs and corrupted results
  cost *attempts* under a :class:`~repro.campaign.policy.RetryPolicy`
  (bounded retries, seeded exponential backoff), and a job that
  exhausts its attempts is **quarantined** as a structured
  :class:`~repro.campaign.policy.JobFailure` while the rest of the
  campaign completes;
* degrades gracefully: a backend whose workers keep dying hands its
  remaining jobs back and they drain inline, recording
  ``degraded_reason`` in :class:`CampaignStats`;
* checkpoints: every outcome lands in the store the moment it is
  known — a result as an entry, a quarantine as the digest's record,
  which ``resume=True`` replays — and a ``KeyboardInterrupt`` returns a
  coherent partial :class:`CampaignOutcome` (flushed results,
  ``stats.interrupted``, wall clock set) instead of losing the run.

Every backend is a ``drain(items, retry=, timeout_s=, fault_plan=,
sink=)`` over the same three parts: one attempt is
:func:`~repro.campaign.pool._execute_one`, its reply is checked by
:func:`~repro.campaign.pool.decode_reply`, and a failed one is booked
by :func:`~repro.campaign.policy.book`.  It reports into the run as it
goes — ``sink.finish(digest, value)``, ``sink.retried(digest, record)``
when a retry is scheduled after ``record.backoff_s``,
``sink.quarantine(failure)`` — and returns ``(None, [])``, or
``(reason, remaining_items)`` when it gives up and the remainder drains
inline.  Backends differ only in *where* the attempt runs:
:class:`Inline` in this process,
:class:`~repro.campaign.pool.SupervisedPool` in supervised children on
pipes, :class:`~repro.campaign.queue.SpoolQueue` in whichever process
claims the job from a shared directory.  Worker processes only ever
receive :class:`Job` descriptors (frozen primitive trees).  Each
outcome is written to the store once, by the process that ran its
attempt's reply check: the run itself for inline and pool, the spool
participant for the spool, which reports its outcomes with
``stored=True``.  A store write is one atomic rename, so no locking is
needed.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.campaign.faults import FaultPlan
from repro.campaign.job import Job, execute_job
from repro.campaign.policy import AttemptRecord, JobFailure, RetryPolicy, book
from repro.campaign.pool import SupervisedPool, _execute_one, decode_reply
from repro.campaign.store import ResultStore

#: ``progress(event, job, done, total)`` with ``event`` one of
#: ``"cached"`` / ``"executed"`` / ``"retried"`` / ``"failed"`` /
#: ``"skipped"``; ``done``/``total`` count unique digests (``retried``
#: does not advance ``done``).
ProgressFn = Callable[[str, Job, int, int], None]


def serial_results(jobs: Iterable[Job]) -> Dict[Hashable, Any]:
    """Execute ``jobs`` in order, in-process, keyed by ``job.key``.

    This is the thin serial path the experiment modules' ``run()``
    wrappers use: no cache, no coalescing, no retries — exactly one
    fresh simulation per listed job, exceptions propagating, like the
    pre-campaign monolithic loops.
    """
    return {job.key: execute_job(job) for job in jobs}


@dataclass
class CampaignStats:
    """Where each job's result came from, and what it cost."""

    total: int = 0  #: jobs requested
    unique: int = 0  #: distinct digests among them
    executed: int = 0  #: digests actually simulated this run
    cached: int = 0  #: digests served from the on-disk cache
    coalesced: int = 0  #: jobs that shared another job's digest
    retried: int = 0  #: attempt failures that were rescheduled
    failed: int = 0  #: digests quarantined (attempts exhausted)
    skipped: int = 0  #: digests skipped as known failures (``--resume``)
    workers: int = 1
    wall_s: float = 0.0
    interrupted: bool = False  #: a SIGINT cut the campaign short
    degraded_reason: Optional[str] = None  #: backend fell back to inline

    def summary(self) -> str:
        text = (
            f"{self.total} jobs ({self.unique} unique): "
            f"{self.executed} executed, {self.cached} cache hits, "
            f"{self.coalesced} coalesced"
        )
        if self.retried:
            text += f", {self.retried} retries"
        if self.failed:
            text += f", {self.failed} quarantined"
        if self.skipped:
            text += f", {self.skipped} skipped"
        text += f"; {self.workers} worker(s), {self.wall_s:.2f}s wall"
        if self.degraded_reason:
            text += f"; degraded: {self.degraded_reason}"
        if self.interrupted:
            text += "; interrupted"
        return text


@dataclass
class CampaignOutcome:
    """Results for every resolved job, quarantined failures, and stats.

    ``results`` holds an entry per requested job whose digest resolved;
    jobs of quarantined digests are absent (their ``JobFailure`` is in
    ``failures`` instead), so a partially-failed campaign still reduces
    every experiment it completed.
    """

    results: Dict[Job, Any] = field(default_factory=dict)
    stats: CampaignStats = field(default_factory=CampaignStats)
    failures: List[JobFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Every requested digest resolved and nothing cut us short."""
        return not self.failures and not self.stats.interrupted

    def experiment_results(self, experiment: str) -> Dict[Hashable, Any]:
        """``{job.key: result}`` for one experiment, in job order —
        the mapping an experiment's ``reduce()`` consumes."""
        return {
            job.key: value
            for job, value in self.results.items()
            if job.experiment == experiment
        }

    def experiments(self) -> List[str]:
        return list(dict.fromkeys(job.experiment for job in self.results))

    def failed_experiments(self) -> List[str]:
        """Experiments with at least one quarantined job, in failure
        order — their ``reduce()`` would see an incomplete mapping."""
        return list(dict.fromkeys(f.experiment for f in self.failures))


@dataclass
class _Run:
    """One campaign's mutable state, and the sink its backends report
    into (``finish`` / ``retried`` / ``quarantine``)."""

    by_digest: Dict[str, List[Job]]
    stats: CampaignStats
    cache: Optional[ResultStore]
    progress: Optional[ProgressFn]
    resolved: Dict[str, Any] = field(default_factory=dict)
    failures: List[JobFailure] = field(default_factory=list)
    done: int = 0

    def emit(self, event: str, digest: str) -> None:
        if self.progress is not None:
            self.progress(
                event, self.by_digest[digest][0], self.done, self.stats.unique
            )

    def hit(self, digest: str, value: Any) -> None:
        self.resolved[digest] = value
        self.stats.cached += 1
        self.done += 1
        self.emit("cached", digest)

    def finish(self, digest: str, value: Any, stored: bool = False) -> None:
        self.resolved[digest] = value
        self.stats.executed += 1
        self.done += 1
        if self.cache is not None and not stored:
            self.cache.put_for_job(self.by_digest[digest][0], value)
        self.emit("executed", digest)

    def retried(self, digest: str, record: AttemptRecord) -> None:
        self.stats.retried += 1
        self.emit("retried", digest)

    def quarantine(self, failure: JobFailure, stored: bool = False) -> None:
        self.failures.append(failure)
        self.stats.failed += 1
        self.done += 1
        if self.cache is not None and not stored:
            self.cache.put_failure(failure)
        self.emit("failed", failure.digest)

    def skip_known_failure(self, failure: JobFailure) -> None:
        self.failures.append(failure)
        self.stats.failed += 1
        self.stats.skipped += 1
        self.done += 1
        self.emit("skipped", failure.digest)


class Inline:
    """The ``workers == 1`` backend, and where a degraded backend's
    remainder drains: every attempt runs in this process.

    No worker boundary means no crash isolation and no wall-clock
    timeouts (killing a hung job requires a process to kill), and fault
    plans deliberately do not apply (:mod:`repro.campaign.faults`).
    The result still crosses the pickle-and-checksum reply, so an
    unpicklable one costs attempts here exactly as in a worker.
    """

    def drain(
        self,
        items: List[Tuple[str, Job]],
        *,
        retry: RetryPolicy,
        timeout_s: Optional[float],
        fault_plan: Optional[FaultPlan],
        sink,
    ) -> Tuple[Optional[str], List[Tuple[str, Job]]]:
        for digest, job in items:
            records: List[AttemptRecord] = []
            last_tb = ""
            while True:
                attempt = len(records) + 1
                reply = decode_reply(_execute_one(digest, job, attempt, None))
                if reply[0] == "ok":
                    sink.finish(digest, reply[1])
                    break
                _, kind, detail, exc_type, tb = reply
                last_tb = tb or last_tb
                record, permanent = book(
                    retry, digest, attempt, kind, detail, os.getpid(), exc_type
                )
                records.append(record)
                if record.backoff_s is None:
                    sink.quarantine(
                        JobFailure.for_job(job, records, last_tb, permanent)
                    )
                    break
                sink.retried(digest, record)
                time.sleep(record.backoff_s)
        return None, []


def run_jobs(
    jobs: Iterable[Job],
    *,
    workers: Optional[int] = 1,
    cache: Optional[ResultStore] = None,
    force: bool = False,
    progress: Optional[ProgressFn] = None,
    retry: Optional[RetryPolicy] = None,
    timeout_s: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
    resume: bool = False,
    queue=None,
) -> CampaignOutcome:
    """Execute a campaign and merge results deterministically.

    ``workers=None`` means one worker per CPU.  ``force=True`` skips
    store lookups (entries are still refreshed with the new results).
    ``timeout_s`` bounds each job's wall clock (not inline — there is
    no one to kill).  ``retry`` defaults to
    three attempts with seeded exponential backoff.  With a ``cache``,
    a quarantined digest leaves its record in the store, whichever run
    put it there: ``resume=True`` reports each unresolved digest that
    has one as a failure without spending any attempts, while a plain
    run drops the record and attempts the digest again.
    ``fault_plan`` injects worker failures for the chaos suite
    (default: the ``REPRO_CAMPAIGN_FAULTS`` environment hook).
    ``queue`` overrides the backend (e.g. a
    :class:`~repro.campaign.queue.SpoolQueue` shared with independent
    worker processes; the caller closes it); by default ``workers > 1``
    drains through a :class:`~repro.campaign.pool.SupervisedPool`, closed
    here, and ``workers == 1`` through :class:`Inline`.

    Raises if two jobs share an ``(experiment, key)`` identity — the
    reduce step could not tell their results apart.  A
    ``KeyboardInterrupt`` mid-campaign does *not* raise: completed
    results are already flushed to the store and the partial
    :class:`CampaignOutcome` comes back with ``stats.interrupted``.
    """
    job_list = list(jobs)
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    retry = retry if retry is not None else RetryPolicy()
    if fault_plan is None:
        fault_plan = FaultPlan.from_env()
    t0 = time.perf_counter()
    seen_ids: Dict[Tuple[str, Hashable], str] = {}
    by_digest: Dict[str, List[Job]] = {}
    for job in job_list:
        ident = (job.experiment, job.key)
        if seen_ids.setdefault(ident, job.digest) != job.digest:
            raise ValueError(
                f"conflicting jobs for {job.label}: same experiment/key, "
                "different configs"
            )
        by_digest.setdefault(job.digest, []).append(job)

    stats = CampaignStats(
        total=len(job_list), unique=len(by_digest), workers=workers
    )
    stats.coalesced = stats.total - stats.unique

    run = _Run(by_digest, stats, cache, progress)
    if cache is not None and not force:
        for digest in by_digest:
            hit, value = cache.get(digest)
            if hit:
                run.hit(digest, value)

    pending: List[Tuple[str, Job]] = []
    for digest, group in by_digest.items():
        if digest in run.resolved:
            continue
        if cache is not None:
            prior = cache.failure(digest) if resume else None
            if prior is not None:
                run.skip_known_failure(prior)
                continue
            # About to be attempted: whatever it ends as is its only record.
            cache.drop_failure(digest)
        pending.append((digest, group[0]))

    built = None  # closed here; a queue passed in is the caller's
    if queue is None and workers > 1:
        built = SupervisedPool(min(workers, max(2, len(pending))))
    backend = queue if queue is not None else built or Inline()
    try:
        while pending:
            gave_up, pending = backend.drain(
                pending,
                retry=retry,
                timeout_s=timeout_s,
                fault_plan=fault_plan,
                sink=run,
            )
            if gave_up is not None:
                # The backend handed back what it did not finish.
                stats.degraded_reason = gave_up
                backend = Inline()
    except KeyboardInterrupt:
        stats.interrupted = True
    finally:
        if built is not None:
            built.close()

    stats.wall_s = time.perf_counter() - t0
    results = {
        job: run.resolved[job.digest]
        for job in job_list
        if job.digest in run.resolved
    }
    return CampaignOutcome(
        results=results, stats=stats, failures=run.failures
    )


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def quarantine_report(outcome: CampaignOutcome) -> str:
    """Human-readable quarantine section for the CLIs."""
    if not outcome.failures:
        return ""
    lines = [f"QUARANTINE ({len(outcome.failures)} job(s)):"]
    for failure in outcome.failures:
        lines.append(f"  {failure.summary()}")
        for record in failure.attempts:
            backoff = (
                f", retried after {record.backoff_s:.3f}s"
                if record.backoff_s is not None
                else ""
            )
            lines.append(
                f"    attempt {record.attempt}: {record.kind} — "
                f"{record.detail}"
                f" (pid {record.worker_pid}){backoff}"
            )
        if failure.traceback:
            lines.append("    last traceback:")
            for tb_line in failure.traceback.rstrip().splitlines():
                lines.append(f"      {tb_line}")
    return "\n".join(lines)
