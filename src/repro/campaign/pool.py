"""Supervised worker pool: crash isolation, timeouts, retry scheduling.

``multiprocessing.Pool`` treats a dead worker as a protocol error: one
SIGKILL mid-job and ``imap_unordered`` hangs or raises, taking the whole
campaign with it.  This pool supervises instead of delegating:

* each worker is a long-lived daemon process fed **one item at a time**
  over its own pipe, so the supervisor always knows exactly which
  ``(digest, attempt)`` a dying worker was holding — a crash costs that
  one attempt, never the campaign;
* results come back as ``(payload_bytes, sha256)`` and are verified
  before unpickling (:func:`decode_reply`), so a corrupted reply is an
  attempt failure, not a store entry;
* every assignment carries a wall-clock deadline; a hung worker is
  SIGKILLed at its deadline, the item retried on the
  :class:`~repro.campaign.policy.RetryPolicy`'s seeded backoff
  schedule, and a fresh worker spawned in its place;
* repeated worker deaths with no intervening progress trip the
  *degradation* threshold: the ``drain`` hands the remaining items back
  to the caller for inline in-process execution (the supervisor's own
  process is never at risk);
* a pool keeps its workers from its first ``drain`` until ``close()``;
  ``repro serve`` starts its one early and drives it from its request
  threads, each ``drain`` call leasing the workers it supervises.

The worker-side half — :func:`_execute_one` and its inverse
:func:`decode_reply` — is also how the inline and spool backends run a
job, so one reply format and one failure taxonomy serve all three.

Scheduling is deterministic: ready items run in (ready-time, submission
sequence) order, retries re-enter the queue at ``now + backoff`` with a
fresh sequence number, and results are merged by digest upstream — so a
campaign that survives injected chaos is byte-identical to a fault-free
serial run.
"""

from __future__ import annotations

import hashlib
import heapq
import importlib
import os
import pickle
import signal
import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.campaign import faults as faults_mod
from repro.campaign.faults import FaultPlan
from repro.campaign.job import Job, execute_job
from repro.campaign.policy import (
    AttemptRecord,
    JobFailure,
    RetryPolicy,
    book,
)

#: How long a worker may hang (seconds) when a fault plan says "hang";
#: far past any test timeout, and SIGKILL does not care either way.
_HANG_S = 3600.0

#: Seconds to wait for replies already in flight when shutting down on
#: interrupt; and how long a child gets to let go before SIGKILL — of
#: its last item or claim, and of life once asked to stop.
_DRAIN_S = 0.25
REAP_GRACE_S = 2.0


# ----------------------------------------------------------------------
# one attempt: shared by every backend
# ----------------------------------------------------------------------
def _flip_last_byte(payload: bytes) -> bytes:
    if not payload:
        return b"\xff"
    return payload[:-1] + bytes([payload[-1] ^ 0xFF])


def _execute_one(
    digest: str, job: Job, attempt: int, plan: Optional[FaultPlan]
) -> Tuple:
    """Run one attempt of one job in this process; returns the reply
    tuple.  Fault actions only fire in real worker processes
    (:data:`repro.campaign.faults.in_worker`).

    Replies are primitive-only:
    ``("ok", digest, attempt, payload, sha256hex)`` or
    ``("error", digest, attempt, exc_type, message, traceback)``.
    """
    action = None
    if plan is not None and faults_mod.in_worker:
        action = plan.action_for(digest, attempt)
    if action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    if action == "exit":
        os._exit(3)
    if action == "hang":
        time.sleep(_HANG_S)
    try:
        if action == "raise":
            raise RuntimeError(
                f"injected transient fault ({digest[:12]}, attempt {attempt})"
            )
        if action == "fail":
            raise ValueError(
                f"injected permanent fault ({digest[:12]}, attempt {attempt})"
            )
        value = execute_job(job)
    except Exception as exc:
        return (
            "error",
            digest,
            attempt,
            type(exc).__name__,
            str(exc),
            traceback.format_exc(),
        )
    try:
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        return (
            "error",
            digest,
            attempt,
            "UnpicklableResult",
            f"{type(exc).__name__}: {exc}",
            traceback.format_exc(),
        )
    checksum = hashlib.sha256(payload).hexdigest()
    if action == "corrupt":
        payload = _flip_last_byte(payload)
    return ("ok", digest, attempt, payload, checksum)


def decode_reply(reply: Tuple) -> Tuple:
    """Verify and unpack an :func:`_execute_one` reply.

    ``("ok", value)``, or ``("fail", kind, detail, exc_type, traceback)``
    with ``kind`` from the :mod:`~repro.campaign.policy` taxonomy — the
    arguments :func:`~repro.campaign.policy.book` wants.
    """
    if reply[0] == "ok":
        _, _, _, payload, checksum = reply
        if hashlib.sha256(payload).hexdigest() != checksum:
            detail = f"payload checksum mismatch ({len(payload)} bytes)"
            return ("fail", "corrupt-result", detail, None, "")
        try:
            return ("ok", pickle.loads(payload))
        except Exception as exc:
            detail = f"payload failed to unpickle: {type(exc).__name__}: {exc}"
            return ("fail", "corrupt-result", detail, None, "")
    _, _, _, exc_type, message, tb = reply
    kind = "unpicklable" if exc_type == "UnpicklableResult" else "exception"
    return ("fail", kind, f"{exc_type}: {message}", exc_type, tb)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _worker_main(conn, preload: Tuple[str, ...] = ()) -> None:
    """Long-lived worker loop: recv item, execute, send reply.

    SIGINT is ignored — a ^C on the campaign belongs to the supervisor,
    which decides whether to drain, kill, or resume.  ``preload`` names
    modules to import before the first item, so a pool's first job
    on each worker does not pay for them.  The loop ends on the poison
    pill or on pipe EOF — the supervisor closed its end, or died.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    faults_mod.in_worker = True
    for name in preload:
        importlib.import_module(name)
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            return
        if item is None:
            return
        digest, job, attempt, plan = item
        reply = _execute_one(digest, job, attempt, plan)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return


# ----------------------------------------------------------------------
# supervisor side: the worker table, shared with the spool
# ----------------------------------------------------------------------
class _Worker:
    """One child, the supervisor's end of its pipe (if any), its item."""

    __slots__ = ("wid", "proc", "conn", "item", "deadline")

    def __init__(self, ctx, wid: int, name: str, target, args: Tuple, conn):
        from multiprocessing.connection import Connection

        self.wid = wid
        self.proc = ctx.Process(
            target=target, args=args, daemon=True, name=f"{name}-{wid}"
        )
        self.proc.start()
        for arg in args:  # a pipe end handed over is the child's alone
            if isinstance(arg, Connection):
                arg.close()
        self.conn = conn
        self.item: Optional[Tuple[str, Job, int]] = None
        self.deadline: Optional[float] = None

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid

    def death_detail(self) -> str:
        code = self.proc.exitcode
        if code is None:
            return "died (no exit code)"
        if code < 0:
            try:
                name = signal.Signals(-code).name
            except ValueError:
                name = f"signal {-code}"
            return f"killed by {name}"
        return f"exited with status {code}"


class PoolDegraded(Exception):
    """Internal signal: too many worker deaths, fall back to inline."""


class PoolClosed(RuntimeError):
    """``drain`` on a pool that was closed, or closed under it."""


class _WorkerTable:
    """Up to ``workers`` children of one supervisor, whatever they run:
    each is ``target(*args)``, ``child(ctx) -> (args, conn)`` building
    its arguments and the supervisor's pipe end, and ``ask(worker)``
    asks one to exit before the SIGKILL — SIGTERM by default, the
    poison pill where there is a pipe.  ``who`` leads the
    :class:`PoolDegraded` text.

    ``live`` is every worker, ``free`` those no drain call holds (only
    they are stopped from another thread).  ``cond`` guards both and
    every process start / poll / reap: multiprocessing's own child
    bookkeeping polls *all* children on each start.
    """

    def __init__(
        self, workers, who, target, child,
        ask=lambda worker: worker.proc.terminate(), context=None,
    ):
        # Imported here, not at module top: the inline backend shares
        # this module, and an inline-only process should not pay for it.
        import multiprocessing

        self.workers_n = workers
        self.who = who
        self.target = target
        self.child = child
        self.ask = ask
        self.cond = threading.Condition()
        self.live: List[_Worker] = []
        self.free: List[_Worker] = []
        self.closed = False
        self._ctx = multiprocessing.get_context(context)
        self._seq = 0

    def spawn(self) -> _Worker:
        """Start one child, held by the caller."""
        with self.cond:
            if self.closed:
                raise PoolClosed("the worker pool is closed")
            args, conn = self.child(self._ctx)
            worker = _Worker(
                self._ctx, self._seq, f"repro-{self.who}-worker",
                self.target, args, conn,
            )
            self._seq += 1
            self.live.append(worker)
            return worker

    def reap(self, worker: _Worker, polite: bool = False) -> None:
        """Stop ``worker`` — if ``polite``, :attr:`ask` it and wait
        :data:`REAP_GRACE_S` first — with SIGKILL, and forget it."""
        with self.cond:
            if polite and worker.proc.is_alive():
                try:
                    self.ask(worker)
                except OSError:
                    pass
                worker.proc.join(timeout=REAP_GRACE_S)
            if worker.proc.is_alive():
                worker.proc.kill()
            worker.proc.join()
            if worker.conn is not None:
                worker.conn.close()
            if worker in self.free:
                self.free.remove(worker)
            if worker in self.live:
                self.live.remove(worker)
            self.cond.notify_all()

    def died(self, deaths: int) -> int:
        """``deaths`` consecutive deaths (not timeouts) without progress
        plus this one; :class:`PoolDegraded` at ``max(3, workers + 1)``."""
        if deaths + 1 >= max(3, self.workers_n + 1):
            raise PoolDegraded(
                f"{self.who} degraded to serial after {deaths + 1} "
                "consecutive worker deaths without progress"
            )
        return deaths + 1

    def top_up(self, deaths: int = 0) -> int:
        """Reap each free worker that exited, :meth:`died` on top of
        ``deaths``, then start free ones until ``workers`` are live."""
        with self.cond:
            for worker in [w for w in self.free if not w.proc.is_alive()]:
                self.reap(worker)
                deaths = self.died(deaths)
            while len(self.live) < self.workers_n:
                self.free.append(self.spawn())
            return deaths

    def live_workers(self) -> int:
        with self.cond:
            return sum(worker.proc.is_alive() for worker in self.live)

    def close(self) -> None:
        """Stop every worker: a free one is asked; a held one is
        SIGKILLed, and its drain raises :class:`PoolClosed` and reaps
        it — so nothing is left to wait for when this returns."""
        with self.cond:
            self.closed = True
            for worker in list(self.free):
                self.reap(worker, polite=True)
            for worker in self.live:
                if worker.proc.is_alive():
                    worker.proc.kill()
            self.cond.notify_all()
            self.cond.wait_for(lambda: not self.live, timeout=REAP_GRACE_S)
            for worker in list(self.live):
                self.reap(worker)


class SupervisedPool(_WorkerTable):
    """The ``workers > 1`` backend: drives work items through
    supervised worker processes.

    ``drain`` follows the contract in :mod:`repro.campaign.executor`;
    every ``sink`` call happens in the thread that called ``drain``, in
    completion order.  When the pool degrades, the items it hands back
    are deterministically ordered.  ``KeyboardInterrupt`` propagates
    after in-flight replies are drained and workers are killed.

    The workers live from the first ``drain`` (or :meth:`start`, which
    spawns all ``workers`` early) until :meth:`close`.  A ``drain``
    leases free ones — spawning while fewer than ``workers`` are live,
    no more than it has items, else waiting for one to be free, which
    is concurrent callers' admission bound — supervises only those,
    replaces the ones that die under it and hands them back; ``repro
    serve`` calls it from several request threads at once.

    ``context`` names the :mod:`multiprocessing` start method (``None``:
    the platform default, ``fork`` on Linux).  A pool driven from
    threads must use ``"spawn"``: a worker that dies is replaced from
    whichever thread supervised it, and ``fork`` from a multi-threaded
    process copies every lock another thread holds into the child.
    ``preload`` is passed to each worker (:func:`_worker_main`), and
    ``on_assign(digest, pid)`` is told which worker an attempt went to.
    """

    def __init__(
        self,
        workers: int,
        *,
        context: Optional[str] = None,
        preload: Tuple[str, ...] = (),
        on_assign: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        if workers < 2:
            raise ValueError("SupervisedPool needs >= 2 workers")
        super().__init__(
            workers, "pool", _worker_main, self._pipe,
            ask=lambda worker: worker.conn.send(None),  # the poison pill
            context=context,
        )
        self.preload = tuple(preload)
        self.on_assign = on_assign

    def _pipe(self, ctx) -> Tuple[Tuple, Any]:
        conn, child_conn = ctx.Pipe()
        return (child_conn, self.preload), conn

    def start(self) -> "SupervisedPool":
        """Spawn all ``workers`` now rather than at the first drain."""
        self.top_up()
        return self

    def _lease(self, wanted: int) -> List[_Worker]:
        with self.cond:
            self.cond.wait_for(
                lambda: self.free or len(self.live) < self.workers_n
                or self.closed
            )
            if self.closed:
                raise PoolClosed("the worker pool is closed")
            while len(self.live) < self.workers_n and len(self.free) < wanted:
                self.free.append(self.spawn())
            mine = self.free[:wanted]
            del self.free[:wanted]
            return mine

    def _release(self, workers: List[_Worker]) -> None:
        """Back to the free list if the worker is known to be between
        items; anything else is stopped (a worker still holding an item
        is killed: nobody will read its reply)."""
        with self.cond:
            keep = not self.closed
            for worker in workers:
                if keep and worker.item is None and worker.proc.is_alive():
                    self.free.append(worker)
                else:
                    self.reap(worker, polite=worker.item is None)
            self.cond.notify_all()

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
        call = _Supervision(self, items, retry, timeout_s, fault_plan, sink)
        try:
            call.workers = self._lease(len(items))
            call.supervise()
        except PoolDegraded as degraded:
            return str(degraded), call.reclaim_remaining()
        except KeyboardInterrupt:
            call.drain_ready()
            raise
        finally:
            self._release(call.workers)
        return None, []


class _Supervision:
    """One ``drain`` call: its ready queue, its attempt records and the
    workers it holds while it runs."""

    def __init__(
        self,
        pool: SupervisedPool,
        items: List[Tuple[str, Job]],
        retry: RetryPolicy,
        timeout_s: Optional[float],
        plan: Optional[FaultPlan],
        sink,
    ) -> None:
        from multiprocessing import connection

        self.pool = pool
        self.retry = retry
        self.timeout_s = timeout_s
        self.plan = plan
        self.sink = sink
        self.workers: List[_Worker] = []
        self._wait = connection.wait
        self._seq = 0
        #: (ready_at, seq, digest, job, attempt)
        self._heap: List[Tuple[float, int, str, Job, int]] = []
        self._attempts: Dict[str, List[AttemptRecord]] = {}
        self._last_tb: Dict[str, str] = {}
        self.deaths = 0
        for digest, job in items:
            self._push(digest, job, 1, 0.0)

    # ------------------------------------------------------------------
    def _push(self, digest: str, job: Job, attempt: int, ready_at: float) -> None:
        heapq.heappush(self._heap, (ready_at, self._seq, digest, job, attempt))
        self._seq += 1

    # ------------------------------------------------------------------
    def supervise(self) -> None:
        while self._heap or any(w.item is not None for w in self.workers):
            now = time.monotonic()
            self._assign(now)
            busy = [w for w in self.workers if w.item is not None]
            if not busy:
                if self._heap:
                    time.sleep(max(0.0, self._heap[0][0] - now))
                    continue
                break
            self._wait_and_collect(busy, now)
            self._expire_deadlines()

    def _assign(self, now: float) -> None:
        idle = [w for w in self.workers if w.item is None]
        idle.sort(key=lambda w: w.wid)
        while idle and self._heap and self._heap[0][0] <= now:
            ready_at, seq, digest, job, attempt = heapq.heappop(self._heap)
            worker = idle.pop(0)
            try:
                worker.conn.send((digest, job, attempt, self.plan))
            except (BrokenPipeError, OSError):
                # Died while idle: no attempt consumed — requeue the
                # item and replace the worker.
                self._push(digest, job, attempt, ready_at)
                self._worker_died(worker)
                continue
            worker.item = (digest, job, attempt)
            worker.deadline = (
                now + self.timeout_s if self.timeout_s is not None else None
            )
            if self.pool.on_assign is not None:
                self.pool.on_assign(digest, worker.pid)

    def _wait_timeout(self, busy: List[_Worker], now: float) -> Optional[float]:
        candidates = [
            w.deadline - now for w in busy if w.deadline is not None
        ]
        if self._heap and any(w.item is None for w in self.workers):
            candidates.append(self._heap[0][0] - now)
        if not candidates:
            return None
        return max(0.0, min(candidates))

    def _wait_and_collect(self, busy: List[_Worker], now: float) -> None:
        objects: List[Any] = [w.conn for w in busy]
        objects.extend(w.proc.sentinel for w in busy)
        ready = self._wait(objects, timeout=self._wait_timeout(busy, now))
        ready_set = set(ready)
        for worker in busy:
            if worker.conn in ready_set:
                self._collect_reply(worker)
        for worker in busy:
            if worker.item is None or worker not in self.workers:
                continue
            if worker.proc.sentinel in ready_set:
                self._worker_died(worker)

    def _collect_reply(self, worker: _Worker) -> None:
        try:
            reply = worker.conn.recv()
        except (EOFError, OSError):
            self._worker_died(worker)
            return
        digest, job, attempt = worker.item
        worker.item = None
        worker.deadline = None
        self.deaths = 0
        reply = decode_reply(reply)
        if reply[0] == "ok":
            self.sink.finish(digest, reply[1])
            return
        _, kind, detail, exc_type, tb = reply
        if tb:
            self._last_tb[digest] = tb
        self._attempt_failed(
            digest, job, attempt, kind, detail, worker.pid, exc_type
        )

    # ------------------------------------------------------------------
    def _worker_died(self, worker: _Worker) -> None:
        """Reap and replace a dead worker; the item it held, if any,
        costs a ``crash`` attempt (dying idle consumes none)."""
        item, pid = worker.item, worker.pid
        with self.pool.cond:  # the exit code is a poll, like the reap
            detail = f"worker pid {pid} {worker.death_detail()}"
            self._remove_worker(worker)
        if item is not None:
            self._attempt_failed(*item, "crash", detail, pid)
        self.deaths = self.pool.died(self.deaths)
        self.workers.append(self.pool.spawn())

    def _expire_deadlines(self) -> None:
        now = time.monotonic()
        for worker in list(self.workers):
            if worker.item is None or worker.deadline is None:
                continue
            if now < worker.deadline:
                continue
            digest, job, attempt = worker.item
            pid = worker.pid
            self._remove_worker(worker)
            self._attempt_failed(
                digest, job, attempt, "timeout",
                f"exceeded {self.timeout_s:g}s wall clock; "
                f"worker pid {pid} killed",
                pid,
            )
            self.workers.append(self.pool.spawn())

    def _remove_worker(self, worker: _Worker) -> None:
        self.pool.reap(worker)
        if worker in self.workers:
            self.workers.remove(worker)

    # ------------------------------------------------------------------
    def _attempt_failed(
        self,
        digest: str,
        job: Job,
        attempt: int,
        kind: str,
        detail: str,
        pid: Optional[int],
        exc_type: Optional[str] = None,
    ) -> None:
        record, permanent = book(
            self.retry, digest, attempt, kind, detail, pid, exc_type
        )
        self._attempts.setdefault(digest, []).append(record)
        if record.backoff_s is not None:
            self._push(
                digest, job, attempt + 1, time.monotonic() + record.backoff_s
            )
            self.sink.retried(digest, record)
            return
        self.sink.quarantine(
            JobFailure.for_job(
                job,
                self._attempts[digest],
                self._last_tb.get(digest, ""),
                permanent,
            )
        )

    # ------------------------------------------------------------------
    def reclaim_remaining(self) -> List[Tuple[str, Job]]:
        """Queued items in submission-sequence order, then in-flight
        ones (a digest is only ever one or the other).  A worker keeps
        the item it holds, so that the release kills it."""
        queued = sorted(
            (seq, digest, job) for (_, seq, digest, job, _) in self._heap
        )
        remaining = [(digest, job) for _, digest, job in queued]
        remaining.extend(
            worker.item[:2] for worker in self.workers
            if worker.item is not None
        )
        self._heap.clear()
        return remaining

    def drain_ready(self) -> None:
        """Collect replies already in the pipes (interrupt path)."""
        busy = [w for w in self.workers if w.item is not None]
        if not busy:
            return
        try:
            ready = self._wait([w.conn for w in busy], timeout=_DRAIN_S)
        except OSError:
            return
        for worker in busy:
            if worker.conn in ready:
                try:
                    self._collect_reply(worker)
                except Exception:
                    pass
