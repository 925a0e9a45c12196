"""The filesystem spool: the backend whose workers are independent
processes.

:class:`SpoolQueue` is the third ``drain`` (contract and shared parts:
:mod:`repro.campaign.executor`), so the attempt, the reply check, the
backoff schedule, the permanent/transient taxonomy, the quarantine
records and :class:`~repro.campaign.faults.FaultPlan` injection inside
worker processes are the shared ones.  What it adds is the transport:
jobs are pickled envelopes in a shared directory, claimed by atomic
``os.rename`` (the rename either succeeds for exactly one claimant or
raises — no locks, works over a shared filesystem), executed by any
number of *independent* worker processes (``repro campaign worker``)
that write results straight into the shared
:class:`~repro.campaign.store.ResultStore`.

Spool liveness is lease-based: a claim is accompanied by a heartbeat
file the owner touches while working.  A worker that dies — SIGKILL,
OOM, power loss — stops heartbeating, and after ``lease_s`` any other
participant *reclaims* the job: the lost lease costs one ``crash``
attempt under the shared retry policy, exactly like a pool worker
death.  Retry state (the per-digest attempt log) and quarantine records
(``failed/<digest>.json``) live in the spool directory itself, so
policy is enforced identically no matter which process picks the job up
next; the enqueuer freezes the policy into ``policy.json`` so every
worker applies the same backoff schedule and fault plan.

Spool layout, under one root directory::

    policy.json            frozen RetryPolicy/timeout/fault plan/store
    jobs/<digest>.job      ready envelopes (pickle: digest, Job, ready_at)
    claims/<digest>.job    leased envelopes (atomic rename from jobs/)
    claims/<digest>.hb     heartbeat (mtime = lease freshness)
    attempts/<digest>.jsonl  one line per failed attempt
                           (AttemptRecord.to_dict + requeued, traceback)
    failed/<digest>.json   quarantine record (JobFailure.to_dict)

Results never pass through the spool: workers write them to the result
store (checksummed, atomic), and the coordinator detects completion by
digest presence — which also makes enqueue/execute idempotent.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.campaign import faults as faults_mod
from repro.campaign.faults import FaultPlan
from repro.campaign.job import Job
from repro.campaign.policy import (
    AttemptRecord,
    JobFailure,
    RetryPolicy,
    book,
)
from repro.campaign.pool import (
    REAP_GRACE_S,
    PoolDegraded,
    _execute_one,
    _WorkerTable,
    decode_reply,
)
from repro.campaign.store import (
    ResultStore,
    _pid_alive,
    append_json_line,
    atomic_write,
    unlink_quietly,
)

SPOOL_VERSION = 1
CONFIG_NAME = "policy.json"

#: Default lease: how long a claim may go without a heartbeat before
#: any participant may reclaim it as a crashed attempt.
DEFAULT_LEASE_S = 30.0

#: Coordinator/worker poll interval when nothing is ready.
POLL_S = 0.05

#: How long a coordinator-spawned worker lingers on a drained spool.
SPAWNED_IDLE_EXIT_S = 0.5


# ----------------------------------------------------------------------
# spool protocol: shared by SpoolQueue and standalone workers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SpoolConfig:
    """The policy every spool participant must apply identically."""

    store_root: str
    retry: RetryPolicy
    timeout_s: Optional[float] = None
    fault_plan: Optional[FaultPlan] = None
    lease_s: float = DEFAULT_LEASE_S


def _dirs(root: Path) -> Dict[str, Path]:
    return {
        name: root / name for name in ("jobs", "claims", "failed", "attempts")
    }


def init_spool(root) -> Path:
    root = Path(root)
    for path in _dirs(root).values():
        path.mkdir(parents=True, exist_ok=True)
    return root


def save_config(root, cfg: SpoolConfig) -> None:
    root = init_spool(root)
    payload = {
        "version": SPOOL_VERSION,
        "store_root": cfg.store_root,
        "retry": dataclasses.asdict(cfg.retry),
        "timeout_s": cfg.timeout_s,
        "lease_s": cfg.lease_s,
        "fault_plan": (
            None
            if cfg.fault_plan is None
            else json.loads(cfg.fault_plan.to_json())
        ),
    }
    atomic_write(
        root / CONFIG_NAME,
        (json.dumps(payload, indent=0, sort_keys=True) + "\n").encode(),
    )


def load_config(root) -> Optional[SpoolConfig]:
    """The spool's frozen policy, or ``None`` before the first enqueue."""
    try:
        data = json.loads((Path(root) / CONFIG_NAME).read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict) or data.get("version") != SPOOL_VERSION:
        return None
    plan = data.get("fault_plan")
    return SpoolConfig(
        store_root=str(data["store_root"]),
        retry=RetryPolicy(**data.get("retry", {})),
        timeout_s=data.get("timeout_s"),
        fault_plan=None if plan is None else FaultPlan.from_json(
            json.dumps(plan)
        ),
        lease_s=float(data.get("lease_s", DEFAULT_LEASE_S)),
    )


def _write_envelope(
    path: Path, digest: str, job: Job, ready_at: float
) -> None:
    atomic_write(
        path,
        pickle.dumps(
            {"digest": digest, "job": job, "ready_at": ready_at},
            protocol=pickle.HIGHEST_PROTOCOL,
        ),
    )


def _read_envelope(path: Path) -> Optional[Dict[str, Any]]:
    try:
        data = pickle.loads(path.read_bytes())
    except Exception:
        return None
    if not isinstance(data, dict) or "digest" not in data:
        return None
    return data


def spool_drained(root) -> bool:
    """No job is queued or leased (backoff-delayed jobs still count).

    ``*.job*`` also matches in-flight/stranded ``*.job.reclaim.<pid>``
    files, which still hold a live envelope.
    """
    dirs = _dirs(Path(root))
    return not any(dirs["jobs"].glob("*.job")) and not any(
        dirs["claims"].glob("*.job*")
    )


def enqueue(root, cfg: SpoolConfig, items: List[Tuple[str, Job]]) -> int:
    """Write ``items`` into the spool, resetting their retry state.

    Re-enqueueing a digest clears its attempt log and any quarantine
    record (a fresh campaign re-attempts failed digests, matching
    ``run_jobs`` without ``--resume``) and sweeps an expired stale
    claim left by a dead participant of an earlier run.
    """
    root = init_spool(root)
    save_config(root, cfg)
    dirs = _dirs(root)
    now = time.time()
    for digest, job in items:
        unlink_quietly(dirs["failed"] / f"{digest}.json")
        unlink_quietly(dirs["attempts"] / f"{digest}.jsonl")
        claim = dirs["claims"] / f"{digest}.job"
        if _lease_expired(cfg, now, claim.with_suffix(".hb"), claim):
            _release(claim)
        _write_envelope(dirs["jobs"] / f"{digest}.job", digest, job, 0.0)
    return len(items)


# ----------------------------------------------------------------------
# attempt log + quarantine records
# ----------------------------------------------------------------------
def _attempt_lines(root: Path, digest: str) -> List[Dict[str, Any]]:
    path = _dirs(root)["attempts"] / f"{digest}.jsonl"
    try:
        text = path.read_text()
    except OSError:
        return []
    lines = []
    for line in text.splitlines():
        try:
            data = json.loads(line)
        except ValueError:
            continue
        if isinstance(data, dict):
            lines.append(data)
    return lines


def _release(claim_path: Path) -> None:
    unlink_quietly(claim_path)
    unlink_quietly(claim_path.with_suffix(".hb"))


def _lease_expired(cfg: SpoolConfig, now: float, *vouchers: Path) -> bool:
    """Whether the first of ``vouchers`` that exists (a claim's
    heartbeat, else the claim file itself) was last touched more than
    ``lease_s`` ago.  No voucher at all is not a lease."""
    for path in vouchers:
        try:
            return now - path.stat().st_mtime > cfg.lease_s
        except OSError:
            continue
    return False


def _lease_owner(hb_path: Path) -> Optional[int]:
    """The pid a heartbeat file names, if it can still be read."""
    try:
        return json.loads(hb_path.read_text()).get("pid")
    except (OSError, ValueError):
        return None


def _fail_attempt(
    root: Path,
    cfg: SpoolConfig,
    digest: str,
    job: Job,
    attempt: int,
    *,
    kind: str,
    detail: str,
    pid: Optional[int],
    claim_path: Path,
    exc_type: Optional[str] = None,
    tb: str = "",
) -> str:
    """Book one failed attempt: requeue with backoff, or quarantine.

    The attempt line lands in the shared log *before* the claim is
    released, so a crash inside this function can at worst inflate the
    attempt count by one reclaim — never lose the failure.  Returns
    ``"requeued"`` or ``"failed"``.
    """
    record, permanent = book(
        cfg.retry, digest, attempt, kind, detail, pid, exc_type
    )
    requeue = record.backoff_s is not None
    append_json_line(
        _dirs(root)["attempts"] / f"{digest}.jsonl",
        {**record.to_dict(), "requeued": requeue, "traceback": tb},
    )
    if requeue:
        _write_envelope(
            _dirs(root)["jobs"] / f"{digest}.job",
            digest,
            job,
            time.time() + record.backoff_s,
        )
        _release(claim_path)
        return "requeued"
    lines = _attempt_lines(root, digest)
    tracebacks = [l.get("traceback", "") for l in lines if l.get("traceback")]
    failure = JobFailure.for_job(
        job,
        [AttemptRecord.from_dict(l) for l in lines],
        tracebacks[-1] if tracebacks else tb,
        permanent,
    )
    atomic_write(
        _dirs(root)["failed"] / f"{digest}.json",
        (json.dumps(failure.to_dict(), sort_keys=True) + "\n").encode(),
    )
    _release(claim_path)
    return "failed"


def load_failure(root, digest: str) -> Optional[JobFailure]:
    path = _dirs(Path(root))["failed"] / f"{digest}.json"
    try:
        return JobFailure.from_dict(json.loads(path.read_text()))
    except (OSError, ValueError, KeyError):
        return None


# ----------------------------------------------------------------------
# claiming and leases
# ----------------------------------------------------------------------
def _take(src: Path, dst: Path) -> bool:
    """Claim by rename: it succeeds for exactly one contender.

    The winner's file is fresh-stamped.  Rename preserves mtime (=
    enqueue time) and lease freshness must start *now*, or a job that
    sat queued longer than ``lease_s`` is reclaimable the instant it is
    claimed — before the heartbeat file exists; likewise a reclaim in
    progress must look live so nobody sweeps it out from under its
    reclaimer while the attempt is booked.
    """
    try:
        os.rename(src, dst)
    except OSError:
        return False  # lost the race
    try:
        os.utime(dst)
    except OSError:
        pass
    return True


def claim_next(
    root: Path, now: Optional[float] = None
) -> Tuple[str, Optional[str], Optional[Job], Optional[Path]]:
    """Try to lease one ready job by atomic rename.

    Returns ``(status, digest, job, claim_path)`` with status
    ``"claimed"`` (lease acquired), ``"wait"`` (work exists but is
    backoff-delayed or leased elsewhere) or ``"empty"`` (spool
    drained).  Digest order makes concurrent workers start from the
    same end of the queue; the rename race resolves who wins.
    """
    now = time.time() if now is None else now
    dirs = _dirs(root)
    entries = sorted(dirs["jobs"].glob("*.job"))
    # "*.job*" counts leased claims AND stranded ".job.reclaim.<pid>"
    # files: an interrupted reclaim still holds a live envelope, so the
    # spool is not drained until reclaim_expired sweeps it back.
    saw_pending = bool(entries) or any(dirs["claims"].glob("*.job*"))
    for path in entries:
        env = _read_envelope(path)
        if env is None:
            continue
        if float(env.get("ready_at", 0.0)) > now:
            continue
        claim_path = dirs["claims"] / path.name
        if _take(path, claim_path):
            return "claimed", env["digest"], env["job"], claim_path
    return ("wait" if saw_pending else "empty"), None, None, None


class _Lease(threading.Thread):
    """Heartbeat for one claim, plus the job's wall-clock deadline.

    Touches the heartbeat file so other participants see the lease as
    live; if the spool policy has a ``timeout_s`` and the job overruns
    it, the lease books a ``timeout`` attempt (requeue or quarantine —
    same decision the pool supervisor would make) and, in a real worker
    process, hard-exits it — the only way to stop a hung simulation
    without an external killer.  A *coordinating* process (an
    in-process ``participate=True`` embedder, or ``repro serve``) must
    survive its jobs, so there the lease only books the attempt and
    releases the claim, leaving the overrunning call to finish in
    place (results are idempotent by digest, so a racing re-execution
    is harmless).
    """

    def __init__(
        self,
        root: Path,
        cfg: SpoolConfig,
        digest: str,
        job: Job,
        attempt: int,
        claim_path: Path,
    ) -> None:
        super().__init__(daemon=True, name=f"spool-lease-{digest[:8]}")
        self.root = root
        self.cfg = cfg
        self.digest = digest
        self.job = job
        self.attempt = attempt
        self.claim_path = claim_path
        self.hb_path = claim_path.with_suffix(".hb")
        self.interval = max(0.05, min(cfg.lease_s / 4.0, 2.0))
        self.stop_event = threading.Event()
        self.started_at = time.monotonic()
        self.hb_path.write_text(
            json.dumps({"pid": os.getpid(), "attempt": attempt})
        )

    def run(self) -> None:
        timeout_s = self.cfg.timeout_s
        while not self.stop_event.wait(self.interval):
            try:
                os.utime(self.hb_path)
            except OSError:
                pass
            if (
                timeout_s is not None
                and time.monotonic() - self.started_at > timeout_s
            ):
                self._overrun(timeout_s)
                return

    def _overrun(self, timeout_s: float) -> None:
        pid = os.getpid()
        exiting = faults_mod.in_worker
        fate = (
            f"worker pid {pid} self-terminated"
            if exiting
            else f"coordinator pid {pid} released the claim"
        )
        try:
            if self.claim_path.exists():
                _fail_attempt(
                    self.root, self.cfg, self.digest, self.job, self.attempt,
                    kind="timeout",
                    detail=f"exceeded {timeout_s:g}s wall clock; {fate}",
                    pid=pid,
                    claim_path=self.claim_path,
                )
        finally:
            if exiting:
                # A hung simulation cannot be interrupted from a
                # thread; exiting the process is the kill.
                os._exit(124)

    def release(self) -> None:
        self.stop_event.set()
        self.join(timeout=1.0)


def _take_for_reclaim(claim: Path) -> Optional[Path]:
    """Rename ``claim`` into this process's reclaim name, or ``None``
    when a concurrent reclaimer won."""
    base = claim.name.split(".reclaim.")[0]
    taken = claim.with_name(f"{base}.reclaim.{os.getpid()}")
    return taken if _take(claim, taken) else None


def _book_expired(root: Path, cfg: SpoolConfig, taken: Path) -> bool:
    """Book the crashed attempt for a claim already renamed to ``taken``."""
    env = _read_envelope(taken)
    if env is None:
        _release(taken)
        return False
    digest, job = env["digest"], env["job"]
    hb = _dirs(root)["claims"] / f"{digest}.hb"
    owner_pid = _lease_owner(hb)
    attempt = len(_attempt_lines(root, digest)) + 1
    _fail_attempt(
        root,
        cfg,
        digest,
        job,
        attempt,
        kind="crash",
        detail=(
            f"lease expired after {cfg.lease_s:g}s without a "
            f"heartbeat (worker pid {owner_pid} presumed dead)"
        ),
        pid=owner_pid,
        claim_path=taken,
    )
    unlink_quietly(hb)
    return True


def reclaim_expired(root, cfg: SpoolConfig) -> int:
    """Requeue (or quarantine) claims whose heartbeat went stale.

    Reclaim itself is claim-by-rename too, so concurrent reclaimers
    cannot double-book the crashed attempt.  A reclaimer that dies
    between its rename and the booking strands the envelope under
    ``<name>.job.reclaim.<pid>`` — a name no ``*.job`` glob matches —
    so stale reclaim files are themselves swept as expired claims.
    """
    root = Path(root)
    claims = _dirs(root)["claims"]
    now = time.time()
    candidates = [
        (claim, (claim.with_suffix(".hb"), claim))
        for claim in sorted(claims.glob("*.job"))
    ]
    # A stranded reclaim has only its own mtime to vouch for it (the
    # stale heartbeat is why it was taken): fresh means its reclaimer
    # may still be booking it.
    candidates += [
        (stranded, (stranded,))
        for stranded in sorted(claims.glob("*.job.reclaim.*"))
    ]
    reclaimed = 0
    for claim, vouchers in candidates:
        if not _lease_expired(cfg, now, *vouchers):
            continue
        taken = _take_for_reclaim(claim)
        if taken is not None and _book_expired(root, cfg, taken):
            reclaimed += 1
    return reclaimed


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def process_one(root, cfg: SpoolConfig, store: ResultStore) -> str:
    """Claim and run one ready job; returns what happened.

    ``"done"`` / ``"requeued"`` / ``"failed"`` after holding a claim,
    ``"wait"`` when work exists but nothing is ready, ``"empty"`` when
    the spool is drained.  The attempt and its reply check are the
    shared :func:`~repro.campaign.pool._execute_one` and
    :func:`~repro.campaign.pool.decode_reply`; faults still only fire
    when :data:`repro.campaign.faults.in_worker` is set, i.e. in real
    worker processes, never in a coordinating one.
    """
    root = Path(root)
    status, digest, job, claim_path = claim_next(root)
    if status != "claimed":
        return status
    attempt = len(_attempt_lines(root, digest)) + 1
    lease = _Lease(root, cfg, digest, job, attempt, claim_path)
    lease.start()
    try:
        reply = _execute_one(digest, job, attempt, cfg.fault_plan)
    finally:
        lease.release()
    reply = decode_reply(reply)
    if reply[0] == "ok":
        store.put_for_job(job, reply[1])
        _release(claim_path)
        return "done"
    _, kind, detail, exc_type, tb = reply
    return _fail_attempt(
        root, cfg, digest, job, attempt,
        kind=kind, detail=detail, pid=os.getpid(),
        claim_path=claim_path, exc_type=exc_type, tb=tb,
    )


def worker_loop(
    root,
    *,
    idle_exit_s: float = 5.0,
    as_worker: bool = True,
    max_jobs: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> int:
    """Drain a spool: the body of ``repro campaign worker``.

    Claims ready jobs until the spool stays drained (or merely absent:
    a worker may start before the coordinator's first enqueue) for
    ``idle_exit_s`` seconds, reclaiming expired leases along the way.
    ``as_worker=True`` marks the process as a real worker so fault
    plans apply (and crash-style faults kill only this process — the
    lease reclaim turns that into a retried attempt).  Returns the
    number of claims this worker processed.
    """
    if as_worker:
        faults_mod.in_worker = True
    root = Path(root)
    processed = 0
    idle_since: Optional[float] = None
    store = None
    while True:
        cfg = load_config(root)
        if cfg is None:
            status = "empty"  # not initialised yet — same grace period
        else:
            if store is None or str(store.root) != cfg.store_root:
                store = ResultStore(cfg.store_root)
            reclaim_expired(root, cfg)
            status = process_one(root, cfg, store)
        if status in ("done", "requeued", "failed"):
            processed += 1
            idle_since = None
            if progress is not None:
                progress(status)
            if max_jobs is not None and processed >= max_jobs:
                return processed
            continue
        if status == "empty":
            now = time.monotonic()
            if idle_since is None:
                idle_since = now
            elif now - idle_since >= idle_exit_s:
                return processed
        else:  # "wait": backoff-delayed or leased elsewhere — stay
            idle_since = None
        time.sleep(POLL_S)


def _spawned_worker_main(root) -> None:
    """Entry point for coordinator-spawned spool worker processes."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    worker_loop(root, idle_exit_s=SPAWNED_IDLE_EXIT_S, as_worker=True)


# ----------------------------------------------------------------------
# the coordinating side
# ----------------------------------------------------------------------
class SpoolQueue:
    """Drain a campaign through a filesystem spool.

    The coordinator enqueues the items, optionally spawns ``workers``
    local worker processes, and then *observes*: results appear in the
    shared ``store``, quarantines in ``failed/``, retries in the
    attempt log — and it reports each into the run's ``sink`` exactly
    as the other backends do.  Independent ``repro campaign worker``
    processes — started by hand, by CI, or on other hosts sharing the
    directory — join the same drain at any time.  ``workers=0`` relies
    entirely on such external workers (set ``participate=True`` to have
    the coordinator claim jobs itself, with fault injection off, like
    the inline backend).

    The ``workers`` run in the pool's worker table
    (:class:`~repro.campaign.pool._WorkerTable`), so a storm of their
    deaths with no progress (no result, no quarantine, no new attempt
    line) degrades exactly like the pool: remaining jobs are withdrawn
    from the spool and handed back for inline execution.  What a dead
    worker held is the spool's to learn, from its lease.
    """

    def __init__(
        self,
        root,
        store: ResultStore,
        *,
        workers: int = 1,
        participate: bool = False,
        lease_s: float = DEFAULT_LEASE_S,
    ) -> None:
        if workers < 0:
            raise ValueError("SpoolQueue workers must be >= 0")
        self.root = Path(root)
        self.store = store
        self.workers = workers
        self.participate = participate
        self.lease_s = lease_s

    # ------------------------------------------------------------------
    def drain(
        self,
        items: List[Tuple[str, Job]],
        *,
        retry: RetryPolicy,
        timeout_s: Optional[float],
        fault_plan: Optional[FaultPlan],
        sink,
    ) -> Tuple[Optional[str], List[Tuple[str, Job]]]:
        cfg = SpoolConfig(
            store_root=str(self.store.root),
            retry=retry,
            timeout_s=timeout_s,
            fault_plan=fault_plan,
            lease_s=self.lease_s,
        )
        pending: Dict[str, Job] = dict(items)  # keeps submission order
        enqueue(self.root, cfg, items)
        table = _WorkerTable(
            self.workers, "spool", _spawned_worker_main,
            lambda ctx: ((str(self.root),), None),
        )
        retries_seen: Dict[str, int] = {digest: 0 for digest in pending}
        try:
            deaths = table.top_up()
            while pending:
                reclaim_expired(self.root, cfg)
                progressed = False
                for digest in list(pending):
                    job = pending[digest]
                    lines = _attempt_lines(self.root, digest)
                    requeued = [l for l in lines if l.get("requeued")]
                    for line in requeued[retries_seen[digest]:]:
                        sink.retried(digest, AttemptRecord.from_dict(line))
                        progressed = True
                    retries_seen[digest] = len(requeued)
                    failure = load_failure(self.root, digest)
                    if failure is not None:
                        sink.quarantine(failure)
                        del pending[digest]
                        progressed = True
                        continue
                    if self.store.contains(digest):
                        hit, value = self.store.get(digest)
                        if hit:
                            sink.finish(digest, value)
                            del pending[digest]
                            progressed = True
                        else:
                            # Stored then corrupted on disk: the entry
                            # was dropped — put the job back in play.
                            enqueue(self.root, cfg, [(digest, job)])
                            retries_seen[digest] = 0
                if progressed:
                    deaths = 0
                if not pending:
                    break
                deaths = table.top_up(deaths)
                if self.participate and self.workers == 0:
                    process_one(self.root, cfg, self.store)
                    continue  # immediately re-check for the result
                time.sleep(POLL_S)
            # A result is visible from the moment it is in the store,
            # which is before the worker that put it there releases its
            # claim: reaping now could leave ``claims/*.job`` behind a
            # clean drain.  A wedged worker only costs the grace period.
            deadline = time.monotonic() + REAP_GRACE_S
            while not spool_drained(self.root) and time.monotonic() < deadline:
                time.sleep(POLL_S)
        except PoolDegraded as degraded:
            # Withdrawn with every spawned worker stopped: a live one
            # could claim a job after the withdrawal swept it.
            table.close()
            return str(degraded), self._withdraw(pending)
        finally:
            table.close()
        return None, []

    # ------------------------------------------------------------------
    def _withdraw(self, pending: Dict[str, Job]) -> List[Tuple[str, Job]]:
        """Pull unresolved jobs out of the spool for the inline fallback.

        Queued envelopes are removed outright; claims whose owner is
        dead are taken over (our spawned workers just died — an
        external worker with a live pid keeps its lease and the inline
        fallback simply races it to the store, harmlessly, since
        results are idempotent by digest).
        """
        dirs = _dirs(self.root)
        for digest in pending:
            trash = dirs["jobs"] / f".{digest}.withdrawn.{os.getpid()}"
            try:
                os.rename(dirs["jobs"] / f"{digest}.job", trash)
                trash.unlink()
            except OSError:
                pass
            claim = dirs["claims"] / f"{digest}.job"
            owner = _lease_owner(claim.with_suffix(".hb"))
            if owner is None or not _pid_alive(int(owner)):
                _release(claim)
        return list(pending.items())
