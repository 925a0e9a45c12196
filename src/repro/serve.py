"""``python -m repro serve`` — scenario reproduction over HTTP.

A stdlib-only front-end to the campaign result store: POST a
ScenarioSpec (by family + overrides, or as full codec JSON) and get
back exactly the bytes ``python -m repro scenario run`` would print.
Requests are keyed on the spec's content digest, so a warm store
answers without simulating and two clients asking for the same spec
coalesce into one execution.

API::

    GET  /healthz            -> "ok"
    GET  /stats              -> JSON serve/store counters
                                (``store_entries`` counts the entry
                                files on disk: O(entries), unsorted;
                                ``workers`` live job slots, ``in_flight``
                                leaders in the drain now, waiting for a
                                slot or running, ``in_flight_peak`` its
                                maximum, ``followers`` requests answered
                                from another request's run)
    GET  /query?family=...&experiment=...&seed=...&digest=...
                             -> JSON rows from the entries' headers
    POST /run                -> rendered scenario (text/plain)

``POST /run`` bodies are JSON, either shape::

    {"family": "churn", "overrides": {"seed": 2, "seconds": 1.0}}
    {"spec": {...}}      # repro.scenario.codec.spec_to_json output

Response headers carry the cache verdict: ``X-Repro-Digest`` (the job's
store address), ``X-Repro-Cache`` (``hit``/``miss``) and
``X-Repro-Executed`` (simulations this request ran).  Append
``?progress=1`` to stream ``# [i/n] ...`` progress lines ahead of the
render (the render itself stays byte-identical; strip lines starting
with ``#`` and the payload matches the CLI).

Misses execute through :func:`repro.campaign.executor.run_jobs` — every
policy (retry, quarantine, fault plans via ``REPRO_CAMPAIGN_FAULTS``)
identical to the CLI path — in three stages, and land in the shared
store, where ``repro campaign query``/``verify-cache`` and warm CLI
sweeps see them immediately:

1. **Admission**: parse, validate, digest; a store hit answers here.
2. **Single-flight per digest**: the first request for a digest not in
   the store *leads* and runs it; requests for the same digest that
   arrive while it runs *follow* — they wait for the leader's outcome
   and answer the same bytes with ``X-Repro-Cache: miss`` and
   ``X-Repro-Executed: 0``, or the same 500 if it failed.  The table
   entry goes when the leader finishes: the store stays authoritative.
3. **The drain** (``--jobs N``, default one per CPU): a leader blocks
   until one of ``N`` slots is free — that wait is the only admission
   queue — and ``run_jobs([job], queue=<the drain>)`` executes on it.
   With ``N > 1`` a slot is a supervised worker process
   (:class:`~repro.campaign.pool.SupervisedPool` after ``start()``:
   one item at a time over a pipe, checksum-verified reply, a crash
   costs that attempt and the worker is replaced); with ``N == 1`` it
   is :class:`~repro.campaign.executor.Inline` on the request thread.
   Store writes happen in this process, one ``atomic_write`` each.

Processes and threads.  One loop thread (:mod:`asyncio`, on the thread
that calls ``serve_forever()``) owns every connection: it frames each
request and answers ``/healthz``, rejects and memoised hits itself, so
a warm hit never waits on another connection's thread for the GIL.
Whatever can wait (the parse / admission path, leaders and followers,
``?progress=1`` streams, ``/stats``, ``/query``) runs on a thread of
its own — uncapped, so followers parked on a slow leader never delay
an unrelated miss — and the loop writes the reply it hands back.  With
threads about, the server never ``fork()``s without ``exec``: a forked
child would inherit the counter, memo or import lock some thread held
at that instant, locked for ever.  The workers are *spawned* (``fork``
+ ``exec`` of a fresh interpreter, which runs no Python in between):
all ``N`` before the banner line, from the thread that builds the
server, and each replacement for a dead one from the request thread
that was supervising it.  A spawned worker inherits no descriptor but
its own pipe end, so when the server goes — however it goes — every
worker reads EOF and returns; the orderly path does not wait for that:
``SIGTERM`` and ``^C`` both reach ``server_close()``, which stops the
drain (idle workers get the poison pill, busy ones ``SIGKILL``).

Wire rules.  Every non-streamed response leaves as ONE write of
headers + body, and accepted connections run with ``TCP_NODELAY``: a
header block flushed ahead of its body made the body's ``send()`` wait
behind Nagle for the client's delayed ACK, ~40 ms on every small reply.
The streamed variant writes its closing chunks and the ``0\r\n\r\n``
terminator together.  A reject that leaves request bytes unread (a
``POST`` refused before its body is read, a malformed or oversized
head) answers in plain text with ``Connection: close``: the unread
bytes would otherwise be parsed as the next request.  ``Expect:
100-continue`` gets ``100 Continue`` before the body is read;
``Connection: close``, or HTTP/1.0 without ``keep-alive``, closes the
connection after the reply.

Admission memo.  A warm ``POST /run`` is one ``stat`` and one write,
both on the loop thread: ``ServeState`` remembers ``sha256(raw body) ->
job digest`` for up to :data:`MEMO_CAP` bodies, and for as many digests
the rendered reply with the signature of the entry file it came from
(:meth:`~repro.campaign.store.ResultStore.signature`).  A remembered
body goes from its digest to one ``stat`` of the entry: an unchanged
signature answers with the remembered bytes, without reading,
verifying, unpickling or rendering anything.  Both mappings are pure
functions of process constants (the family registry, the cache schema
salt) and the seeded run, so there is nothing to invalidate; the store
stays authoritative — a changed signature is read and verified again
through ``store.get``, and when the store no longer holds the digest
the request takes the full parse -> validate -> ``run_jobs`` path as if
never seen.  Every request for a stored digest, memoised, parsed or
streamed, answers through that one :meth:`ServeState.stored`; a leader
remembers the render it made once its entry has landed.  Only bodies
that were answered 200 are remembered, and ``?progress=1`` bypasses the
memo (not the stored renders).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import socket
import sys
import threading
import time
from email.utils import formatdate
from functools import lru_cache
from hashlib import sha256
from http import HTTPStatus
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs

#: Refuse request bodies larger than this (a spec is a few KB).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Refuse a request line plus headers longer than this with a 431.
MAX_HEAD_BYTES = 64 * 1024

#: Admission memo size, and the number of renders kept beside it.  A
#: memo entry is a 32-byte key and a 64-char digest (~250 B with the
#: dict slot), so a full memo stays under 1 MB; a kept render is
#: 0.4-0.6 KB of text, ~0.8 KB with its digest, signature and slot, so
#: the renders add about 3.2 MB: ~4 MB for both at the cap.
MEMO_CAP = 4096

#: What a worker process imports before its first item: the module a
#: scenario job's executor lives in — what the inline path imports on
#: its first miss, and nothing else.
WORKER_PRELOAD = ("repro.scenario.runner",)

_TEXT = "text/plain; charset=utf-8"
_SERVER = f"repro-serve Python/{sys.version.split()[0]}"


class ServeError(Exception):
    """Maps a request problem to an HTTP status + message."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _parse_body(raw: bytes) -> Any:
    """Decode a ``POST /run`` body; malformed JSON is a 400."""
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServeError(400, f"body is not valid JSON: {exc}") from exc


def _rendered(result) -> bytes:
    """The bytes ``repro scenario run`` prints for ``result``."""
    from repro.scenario.runner import render_result

    return (render_result(result) + "\n").encode("utf-8")


def _best_effort(sink):
    """``sink`` whose first failure (a streaming client that hung up)
    drops that stream's later lines and nothing else: the run, its
    store put and its followers carry on."""
    broken = []

    def deliver(*event) -> None:
        if not broken:
            try:
                sink(*event)
            except Exception:  # noqa: BLE001 — the stream's loss only
                broken.append(True)

    return None if sink is None else deliver


class _OneAtATime:
    """The ``jobs == 1`` drain: :class:`~repro.campaign.executor.Inline`
    on the request thread, one request at a time — the bound a pool's
    wait for a free worker gives, without a process."""

    def __init__(self) -> None:
        self._slot = threading.Semaphore(1)

    def drain(self, items, **how):
        from repro.campaign.executor import Inline

        with self._slot:
            return Inline().drain(items, **how)

    def live_workers(self) -> int:
        return 1

    def close(self) -> None:
        pass


class _Flight:
    """One digest being executed: what its leader leaves for the
    requests that follow it."""

    __slots__ = ("done", "rendered", "error", "pid")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.rendered: Optional[bytes] = None
        self.error: Optional[ServeError] = None
        self.pid = os.getpid()  # where the last attempt ran


class ServeState:
    """Shared server state: the store, counters, the admission memo,
    the single-flight table and the drain."""

    def __init__(self, store, jobs: int = 1, verbose: bool = False) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.store = store
        self.verbose = verbose  #: one stderr line per miss
        self.counters = {"requests": 0, "hits": 0, "misses": 0,
                         "executed": 0, "errors": 0}
        #: The drain's side of ``/stats``, under the same lock.
        self.flight_counters = {"followers": 0, "in_flight": 0,
                                "in_flight_peak": 0}
        self.counters_lock = threading.Lock()
        #: sha256(raw body) -> job digest, oldest first, <= MEMO_CAP.
        self.memo: Dict[bytes, str] = {}
        #: job digest -> (rendered bytes, the entry's signature they were
        #: rendered under), oldest first, <= MEMO_CAP.
        self.replies: Dict[str, Tuple[bytes, Tuple[int, int, int]]] = {}
        self.memo_lock = threading.Lock()  # adds to and drops from both
        #: job digest -> the run in progress for it.
        self.flights: Dict[str, _Flight] = {}
        self.flights_lock = threading.Lock()
        if jobs > 1:
            from repro.campaign.pool import SupervisedPool

            self.drain = SupervisedPool(
                jobs, context="spawn", preload=WORKER_PRELOAD,
                on_assign=self._assigned,
            ).start()
        else:
            self.drain = _OneAtATime()

    def close(self) -> None:
        """Stop the drain's workers; the state serves no miss after."""
        self.drain.close()

    def _assigned(self, digest: str, pid: int) -> None:
        flight = self.flights.get(digest)
        if flight is not None:
            flight.pid = pid

    def bump(self, **deltas: int) -> None:
        with self.counters_lock:
            for name, delta in deltas.items():
                self.counters[name] += delta

    def _keep(self, table: Dict, key, value) -> None:
        """``table[key] = value``, the oldest entry out at MEMO_CAP."""
        with self.memo_lock:
            if key not in table and len(table) >= MEMO_CAP:
                del table[next(iter(table))]
            table[key] = value

    # ------------------------------------------------------------------
    def stored(self, digest: str) -> Optional[bytes]:
        """The render of ``digest``'s store entry, ``None`` when the store
        holds none: how every hit is answered.  While the entry file
        keeps the signature a render was remembered under, that is one
        ``stat``; otherwise the entry is read and verified by
        ``store.get`` and its render remembered under the new one."""
        # The stat comes before any read: a put racing the read leaves
        # a signature that no longer holds, so a re-read, never a stale
        # reply.
        signature = self.store.signature(digest)
        known = self.replies.get(digest)
        if known is not None and known[1] == signature:
            return known[0]
        hit, result = (
            (False, None) if signature is None else self.store.get(digest)
        )
        if hit:
            rendered = _rendered(result)
            self._keep(self.replies, digest, (rendered, signature))
            return rendered
        if known is not None:
            with self.memo_lock:
                self.replies.pop(digest, None)
        return None

    def remembered(self, raw: bytes):
        """What :meth:`run` returns for a body answered before while the
        store holds its digest, else ``None``: the loop's hit path."""
        digest = self.memo.get(sha256(raw).digest())
        rendered = None if digest is None else self.stored(digest)
        if rendered is None:
            return None
        self.bump(hits=1)
        return rendered, digest, True, 0

    def run_body(self, raw: bytes) -> Tuple[bytes, str, bool, int]:
        """Admit one raw ``POST /run`` body in full — parse, validate,
        :meth:`run` — and remember its digest; returns what :meth:`run`
        returns.  The loop asked :meth:`remembered` already: this is the
        body it did not answer."""
        served = self.run(self.spec_for(_parse_body(raw)))
        self._keep(self.memo, sha256(raw).digest(), served[1])
        return served

    # ------------------------------------------------------------------
    def spec_for(self, body: Dict[str, Any]):
        """Resolve a request body into a validated ScenarioSpec."""
        from repro.scenario.codec import CodecError, spec_from_json
        from repro.scenario.registry import FAMILIES, build_spec
        from repro.scenario.spec import check_finite

        if not isinstance(body, dict):
            raise ServeError(400, "request body must be a JSON object")
        if "spec" in body:
            try:
                return spec_from_json(body["spec"])
            except CodecError as exc:
                raise ServeError(400, str(exc)) from exc
            except ValueError as exc:
                raise ServeError(400, f"invalid spec: {exc}") from exc
        family = body.get("family")
        if not family:
            raise ServeError(
                400, "body needs either 'spec' or 'family' (+'overrides')"
            )
        if family not in FAMILIES:
            raise ServeError(
                404,
                f"unknown scenario family {family!r}; "
                f"valid: {', '.join(FAMILIES)}",
            )
        overrides = body.get("overrides", {})
        if not isinstance(overrides, dict):
            raise ServeError(400, "'overrides' must be an object")
        try:
            check_finite(overrides)  # before a builder loops to inf
            spec = build_spec(family, **overrides)
            spec.validate()
        except (TypeError, ValueError) as exc:
            raise ServeError(400, str(exc)) from exc
        return spec

    def run(self, spec, progress=None):
        """Serve one spec: store hit, or execute-and-store.

        Returns ``(rendered_bytes, digest, hit, executed)``.
        """
        from repro.scenario.runner import scenario_job

        job = scenario_job(spec, key=spec.name)
        digest = job.digest
        rendered = self.stored(digest)
        if rendered is not None:
            self.bump(hits=1)
            return rendered, digest, True, 0
        self.bump(misses=1)
        t0 = time.perf_counter()
        with self.flights_lock:
            flight = self.flights.get(digest)
            leads = flight is None
            if leads:
                flight = self.flights[digest] = _Flight()
        if leads:
            executed = self._lead(job, flight, _best_effort(progress))
        else:
            with self.counters_lock:
                self.flight_counters["followers"] += 1
            flight.done.wait()
            executed = 0
        if self.verbose:
            sys.stderr.write(
                f"serve: miss {digest[:12]} "
                f"{'leader' if leads else 'follower'} worker={flight.pid} "
                f"{1e3 * (time.perf_counter() - t0):.1f} ms"
                + (f" failed: {flight.error}" if flight.error else "")
                + "\n"
            )
        if flight.error is not None:
            raise flight.error
        return flight.rendered, digest, False, executed

    def _lead(self, job, flight: _Flight, progress) -> int:
        """Run ``job`` on the drain for its flight; returns how many
        simulations that took.  Always lands the flight — a result or
        an error — and always retires it from the table."""
        from repro.campaign.executor import run_jobs

        with self.counters_lock:
            gauges = self.flight_counters
            gauges["in_flight"] += 1
            gauges["in_flight_peak"] = max(
                gauges["in_flight_peak"], gauges["in_flight"]
            )
        executed = 0
        try:
            outcome = run_jobs(
                [job], queue=self.drain, cache=self.store, progress=progress
            )
            executed = outcome.stats.executed
            if job in outcome.results:
                flight.rendered = _rendered(outcome.results[job])
                # Landed: the first repeat reads nothing either.
                signature = self.store.signature(job.digest)
                if signature is not None:
                    self._keep(self.replies, job.digest,
                               (flight.rendered, signature))
            else:
                failure = next(
                    (f for f in outcome.failures if f.digest == job.digest),
                    None,
                )
                detail = (
                    f"{failure.attempts[-1].kind}: "
                    f"{failure.attempts[-1].detail}"
                    if failure and failure.attempts
                    else "job quarantined"
                )
                flight.error = ServeError(
                    500, f"scenario failed to execute ({detail})"
                )
        except Exception as exc:  # noqa: BLE001 — followers must wake
            flight.error = ServeError(500, f"{type(exc).__name__}: {exc}")
        finally:
            with self.counters_lock:
                self.counters["executed"] += executed
                self.flight_counters["in_flight"] -= 1
            with self.flights_lock:
                del self.flights[job.digest]
            flight.done.set()
        return executed


@lru_cache(maxsize=1)
def _date(second: int) -> str:
    """The ``Date`` value of a whole second: formatted once per second,
    not once per reply."""
    return formatdate(second, usegmt=True)


def _head(status: int, fields) -> bytes:
    """Status line and header block; ``(name, value)`` ``fields``."""
    lines = [f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
             f"Server: {_SERVER}", f"Date: {_date(int(time.time()))}"]
    lines += [f"{name}: {value}" for name, value in fields]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def _whole(status: int, payload: bytes, fields=(), kind=_TEXT) -> bytes:
    """A non-streamed response, head and body: one write."""
    head = [("Content-Type", kind), ("Content-Length", len(payload))]
    return _head(status, head + list(fields)) + payload


def _served(rendered: bytes, digest: str, hit: bool, executed: int) -> bytes:
    """The 200 for what :meth:`ServeState.run` returned."""
    return _whole(200, rendered, [
        ("X-Repro-Digest", digest),
        ("X-Repro-Cache", "hit" if hit else "miss"),
        ("X-Repro-Executed", executed),
    ])


def _json(obj: Any) -> bytes:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    return _whole(200, text.encode("utf-8"), kind="application/json")


def _chunk(data: bytes) -> bytes:
    return b"%x\r\n%s\r\n" % (len(data), data)


class _Connection(asyncio.Protocol):
    """One client connection, driven by the loop thread.

    Requests are framed one at a time, in arrival order.  ``/healthz``,
    rejects and memoised hits are answered here; anything else goes to
    a thread of its own (:meth:`_offload`), and the connection reads
    nothing more until the loop has written the reply it hands back.
    """

    def __init__(self, server: "_Server") -> None:
        self.server = server
        self.state = server.repro_state
        self.transport = None
        self.peer = self.line = "-"  # for the --verbose request log
        self.buffer = bytearray()
        self.body_length: Optional[int] = None  # of the POST being read
        self.stream = self.busy = self.paused = False
        self.keep_alive, self.closing = True, False

    def connection_made(self, transport) -> None:
        self.transport = transport
        transport.get_extra_info("socket").setsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
        )
        self.peer = transport.get_extra_info("peername")[0]
        self.server.connections.add(self)

    def connection_lost(self, exc) -> None:
        self.closing = True
        self.server.connections.discard(self)

    def data_received(self, data: bytes) -> None:
        if not self.closing:
            self.buffer += data
            self._serve()

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        self._serve()

    # ------------------------------------------------------------------
    def _serve(self) -> None:
        """Answer buffered requests in order until one goes to a thread,
        the write buffer fills or the connection closes.  Reading (and
        so a client's EOF, which closes) waits while either lasts."""
        while not (self.busy or self.paused or self.closing) and self._next():
            pass
        if (self.busy or self.paused) and not self.closing:
            self.transport.pause_reading()
        else:
            self.transport.resume_reading()

    def _next(self) -> bool:
        """Frame the next request and answer it or hand it off; False
        while the buffer does not hold all of it."""
        if self.body_length is None:
            end = self.buffer.find(b"\r\n\r\n", 0, MAX_HEAD_BYTES)
            if end < 0 and len(self.buffer) >= MAX_HEAD_BYTES:
                self.state.bump(requests=1)
                self._reject(431, "request head too large")
            if end < 0:
                return False
            head = self.buffer[:end].decode("latin-1")
            del self.buffer[: end + 4]
            self._begin(head)
            return True
        if len(self.buffer) < self.body_length:
            return False
        raw = bytes(self.buffer[: self.body_length])
        del self.buffer[: self.body_length]
        self.body_length = None
        served = None if self.stream else self.state.remembered(raw)
        if served is None:
            self._offload(self._run, raw, self.stream)
        else:
            self._answer(200, _served(*served))
        return True

    def _begin(self, head: str) -> None:
        """Parse a request line and headers: answer a ``GET`` or a
        reject, or get ready to read a ``POST`` body."""
        self.line, *lines = head.split("\r\n")
        self.state.bump(requests=1)
        words = self.line.split()
        if len(words) != 3 or words[2] not in ("HTTP/1.0", "HTTP/1.1"):
            return self._reject(400, f"bad request line {self.line[:80]!r}")
        method, target, version = words
        fields: Dict[str, str] = {}
        for line in lines:
            name, colon, value = line.partition(":")
            if not (colon and name.strip()):
                return self._reject(400, f"bad header line {line[:80]!r}")
            fields.setdefault(name.strip().lower(), value.strip())
        connection = fields.get("connection", "").lower()
        self.keep_alive = connection == "keep-alive" or (
            version == "HTTP/1.1" and connection != "close")
        path, _, query = target.partition("?")
        if method == "GET":
            if path == "/healthz":
                return self._answer(200, _whole(200, b"ok\n"))
            if path in ("/stats", "/query"):
                return self._offload(self._side, path, query)
            missing = f"no such endpoint {path!r}"
            return self._answer(*self._error(404, missing))
        # Rejections up to the body read leave the body on the socket,
        # so each of them closes the connection.
        if method != "POST":
            return self._reject(501, f"unsupported method {method!r}")
        if path != "/run":
            return self._reject(404, f"no such endpoint {path!r}")
        try:
            length = int(fields.get("content-length") or 0)
        except ValueError:
            return self._reject(400, "bad Content-Length")
        if length <= 0:
            return self._reject(400, "POST /run needs a JSON body")
        if length > MAX_BODY_BYTES:
            return self._reject(413, "request body too large")
        self.stream = False
        if query:  # no parse_qs for a plain target
            progress = parse_qs(query).get("progress", ["0"])[-1]
            self.stream = progress in ("1", "true", "yes")
        self.body_length = length
        expect = fields.get("expect", "").lower()
        if version == "HTTP/1.1" and expect == "100-continue":
            self._write(b"HTTP/1.1 100 Continue\r\n\r\n")

    # -- replies: on the loop --------------------------------------------
    def _write(self, data: bytes) -> None:
        if not self.transport.is_closing():
            self.transport.write(data)

    def _answer(self, status: int, data: bytes, close: bool = False) -> None:
        if not self.server.quiet:
            logged = f'"{self.line}" {status} -'
            sys.stderr.write(f"serve: {self.peer} - {logged}\n")
        self._write(data)
        if close or not self.keep_alive:
            self.closing = True
            self.transport.close()  # behind the reply

    def _error(self, status: int, message: str, close: bool = False):
        """``close`` ends the connection after this reply: for a request
        whose body is still unread on the socket."""
        self.state.bump(errors=1)
        payload = f"error: {message}\n".encode("utf-8")
        fields = [("Connection", "close")] if close else []
        return status, _whole(status, payload, fields), close

    def _reject(self, status: int, message: str) -> None:
        self._answer(*self._error(status, message, close=True))

    # -- the work that can wait, on a thread each --------------------------
    def _offload(self, work, *args) -> None:
        """Run ``work(*args)`` on a thread of its own; the loop writes
        the ``(status, bytes, close)`` it returns."""

        def run() -> None:
            try:
                reply = work(*args)
            except Exception as exc:  # noqa: BLE001 — keep the server up
                reply = self._error(500, f"{type(exc).__name__}: {exc}")
            self._from_thread(self._answered, *reply)

        self.busy = True
        threading.Thread(target=run, daemon=True).start()

    def _answered(self, status: int, data: bytes, close: bool) -> None:
        self.busy = False
        self._answer(status, data, close)
        self._serve()

    def _from_thread(self, callback, *args) -> None:
        try:
            self.server.loop.call_soon_threadsafe(callback, *args)
        except RuntimeError:
            pass  # the loop is closed: the server has stopped

    def _side(self, path: str, query: str):
        """``GET /stats`` or ``GET /query``."""
        state = self.state
        if path == "/stats":
            with state.counters_lock:
                counters = {**state.counters, **state.flight_counters}
            counters["workers"] = state.drain.live_workers()
            counters["store_entries"] = len(state.store)
            counters["store_root"] = str(state.store.root)
            return 200, _json(counters), False
        params = {k: v[-1] for k, v in parse_qs(query).items()}
        try:
            seed = params.get("seed") and int(params["seed"])
        except ValueError:
            return self._error(400, "seed must be an integer")
        rows = state.store.query(
            experiment=params.get("experiment"), family=params.get("family"),
            seed=seed, digest_prefix=params.get("digest"),
        )
        return 200, _json(rows), False

    def _run(self, raw: bytes, stream: bool):
        """``POST /run`` the memo did not answer: parse, admission, the
        drain; with ``stream``, chunks of ``# ...`` progress lines, then
        the render."""
        try:
            if not stream:
                return 200, _served(*self.state.run_body(raw)), False
            spec = self.state.spec_for(_parse_body(raw))
        except ServeError as exc:
            return self._error(exc.status, str(exc))
        except RecursionError:
            return self._error(400, "request body nests too deeply")
        self._from_thread(self._write, _head(200, [
            ("Content-Type", _TEXT), ("Transfer-Encoding", "chunked"),
        ]))

        def progress(event: str, job, done: int, total: int) -> None:
            line = f"# [{done}/{total}] {job.label} ({event})\n"
            self._from_thread(self._write, _chunk(line.encode("utf-8")))

        # The head and progress chunks are on their way, so no failure
        # past this point may become a second status line: report it as
        # a final chunk and always terminate the body.  The closing
        # chunks and the terminator go out as one write.
        try:
            rendered, digest, hit, executed = self.state.run(
                spec, progress=progress
            )
            tail = _chunk(
                f"# digest={digest} cache={'hit' if hit else 'miss'} "
                f"executed={executed}\n".encode("utf-8")
            ) + _chunk(rendered)
        except Exception as exc:  # noqa: BLE001 — keep the framing valid
            self.state.bump(errors=1)
            text = str(exc) if isinstance(exc, ServeError) else (
                f"{type(exc).__name__}: {exc}")
            tail = _chunk(f"# error: {text}\n".encode("utf-8"))
        return 200, tail + b"0\r\n\r\n", False


class _Server:
    """The listening socket and the loop serving it, behind the
    ``socketserver`` calls the CLI and the tests make."""

    def __init__(self, sock, state: ServeState, quiet: bool) -> None:
        self.socket = sock
        self.server_address = sock.getsockname()
        self.repro_state = state  # for tests and introspection
        self.quiet = quiet
        self.connection_class = _Connection  # a test may subclass it
        self.connections: set = set()  # the open ones, for shutdown
        self.loop = asyncio.new_event_loop()
        self._listener = self.loop.run_until_complete(self.loop.create_server(
            lambda: self.connection_class(self), sock=sock
        ))
        self._stopped = threading.Event()
        self._stopped.set()

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Run the loop on this thread until :meth:`shutdown` (the loop
        wakes on events: ``poll_interval`` goes unused)."""
        self._stopped.clear()
        try:
            self.loop.run_forever()
        finally:
            self._listener.close()
            for connection in list(self.connections):
                connection.transport.abort()
            self.loop.run_until_complete(asyncio.sleep(0))
            self.loop.close()
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` from another thread, and wait."""
        try:
            self.loop.call_soon_threadsafe(self.loop.stop)
        except RuntimeError:
            pass  # the loop is closed already
        self._stopped.wait()

    def server_close(self) -> None:
        if not self.loop.is_running():
            self.loop.close()
        self.socket.close()
        self.repro_state.close()


def make_server(
    store,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
    jobs: int = 1,
) -> _Server:
    """Build (but do not start) the serve front-end.

    Binds immediately — read ``server.server_address`` for the resolved
    port when asking for port 0 — and runs via ``serve_forever()`` on
    the thread that is to own every connection; ``shutdown()`` stops it
    from another, and ``server_close()`` also stops the drain.  ``jobs
    > 1`` starts that many worker processes here, on the calling thread;
    the default runs misses inline and never starts one.
    """
    state = ServeState(store, jobs=jobs, verbose=not quiet)
    try:
        return _Server(socket.create_server((host, port)), state, quiet)
    except BaseException:
        state.close()
        raise


def _terminate(signum, frame) -> None:
    """``SIGTERM`` ends ``serve_forever()`` the way ``^C`` does."""
    raise KeyboardInterrupt


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description=(
            "Serve scenario reproductions over HTTP, backed by the "
            "campaign result store."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8037,
        help="TCP port (0 picks a free one; printed at startup)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result store root (default: $REPRO_CACHE_DIR, else "
        "<repo root>/.repro-cache/campaign)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="misses simulated at once: N worker processes, or inline "
        "on the request thread for 1 (default: one per CPU)",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="log one line per request, and one per miss (digest, "
        "leader/follower, worker pid, wall ms), to stderr",
    )
    args = parser.parse_args(argv)
    jobs = args.jobs if args.jobs is not None else os.cpu_count() or 1
    if jobs < 1:
        parser.error(f"--jobs must be >= 1, got {jobs}")

    from repro.campaign.store import ResultStore, default_store_root

    store = ResultStore(
        default_store_root() if args.cache_dir is None else args.cache_dir
    )
    signal.signal(signal.SIGTERM, _terminate)
    server = make_server(
        store, host=args.host, port=args.port, quiet=not args.verbose,
        jobs=jobs,
    )
    try:
        host, port = server.server_address[:2]
        print(f"serving on http://{host}:{port} (store: {store.root})")
        print('try: curl -s -X POST -d \'{"family": "churn", "overrides": '
              f'{{"seconds": 1.0}}}}\' http://{host}:{port}/run')
        sys.stdout.flush()
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
