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
                             -> JSON rows from the store index
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
   Store writes happen in this process, behind the store's own lock.

Processes and threads.  The server runs a thread per connection, so it
never ``fork()``s without ``exec``: a forked child would inherit the
counter, memo or import lock some request thread held at that instant,
locked for ever.  The workers are *spawned* (``fork`` + ``exec`` of a
fresh interpreter, which runs no Python in between): all ``N`` before
the banner line, from the thread that builds the server, and each
replacement for a dead one from the request thread that was
supervising it — the same call, safe from any thread.  A spawned
worker inherits no descriptor but its own pipe end, so when the server
goes — however it goes — every worker reads EOF and returns; the
orderly path does not wait for that: ``SIGTERM`` and ``^C`` both reach
``server_close()``, which stops the drain (idle workers get the poison
pill, busy ones ``SIGKILL``) before the process exits.

Wire rules.  Every non-streamed response leaves as ONE write of
headers + body, and accepted connections run with ``TCP_NODELAY``: a
header block flushed ahead of its body made the body's ``send()`` wait
behind Nagle for the client's delayed ACK, ~40 ms on every small reply.
The streamed variant writes its closing chunks and the ``0\r\n\r\n``
terminator together.  A ``POST`` rejected before its body is read (wrong
path, bad/missing/oversized ``Content-Length``) answers with
``Connection: close`` — the unread body would otherwise be parsed as
the next request line of a keep-alive connection.

Admission memo.  A warm ``POST /run`` is one read, one store lookup, one
send: ``ServeState`` remembers ``sha256(raw body) -> job digest`` for up
to :data:`MEMO_CAP` bodies and asks the store for a remembered digest
before parsing anything.  The body -> digest mapping is a pure function
of process constants (the family registry, the cache schema salt), so
there is nothing to invalidate; the store stays authoritative — when it
no longer holds the digest the request takes the full parse -> validate
-> ``run_jobs`` path as if never seen.  Only bodies that were answered
200 are remembered, and ``?progress=1`` bypasses the memo.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time
from hashlib import sha256
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from io import BytesIO
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

#: Refuse request bodies larger than this (a spec is a few KB).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Admission memo size.  An entry is a 32-byte key and a 64-char digest
#: (~250 B with the dict slot), so a full memo stays under 1 MB.
MEMO_CAP = 4096

#: What a worker process imports before its first item: the module a
#: scenario job's executor lives in — what the inline path imports on
#: its first miss, and nothing else.
WORKER_PRELOAD = ("repro.scenario.runner",)


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
        self.memo_lock = threading.Lock()
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

    # ------------------------------------------------------------------
    def run_body(self, raw: bytes) -> Tuple[bytes, str, bool, int]:
        """Serve one raw ``POST /run`` body; returns what :meth:`run`
        returns.

        A body answered before goes straight from its remembered digest
        to the store.  The store is authoritative: if it no longer
        holds that digest the body is admitted in full again.
        """
        key = sha256(raw).digest()
        digest = self.memo.get(key)
        if digest is not None:
            hit, result = self.store.get(digest)
            if hit:
                self.bump(hits=1)
                return _rendered(result), digest, True, 0
        served = self.run(self.spec_for(_parse_body(raw)))
        with self.memo_lock:
            if key not in self.memo and len(self.memo) >= MEMO_CAP:
                del self.memo[next(iter(self.memo))]
            self.memo[key] = served[1]  # the job digest
        return served

    # ------------------------------------------------------------------
    def spec_for(self, body: Dict[str, Any]):
        """Resolve a request body into a validated ScenarioSpec."""
        from repro.scenario.codec import CodecError, spec_from_json
        from repro.scenario.registry import FAMILIES, build_spec

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
        hit, result = self.store.get(digest)
        if hit:
            self.bump(hits=1)
            return _rendered(result), digest, True, 0
        self.bump(misses=1)
        t0 = time.perf_counter()
        with self.flights_lock:
            flight = self.flights.get(digest)
            leads = flight is None
            if leads:
                flight = self.flights[digest] = _Flight()
        if leads:
            executed = self._lead(job, flight, progress)
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


class _Handler(BaseHTTPRequestHandler):
    state: ServeState  # injected by make_server
    quiet = True
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    def log_message(self, fmt, *args):  # noqa: N802 (stdlib name)
        if not self.quiet:
            sys.stderr.write(
                "serve: %s - %s\n" % (self.address_string(), fmt % args)
            )

    def _send_text(
        self,
        status: int,
        payload: bytes,
        headers: Optional[Dict[str, str]] = None,
        content_type: str = "text/plain; charset=utf-8",
    ) -> None:
        # end_headers() flushes the header block by itself; collect it
        # so that headers + body reach the socket as one write.
        wire, self.wfile = self.wfile, BytesIO()
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            head = self.wfile.getvalue()
        finally:
            self.wfile = wire
        wire.write(head + payload)

    def _send_json(self, status: int, obj: Any) -> None:
        self._send_text(
            status,
            (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode(
                "utf-8"
            ),
            content_type="application/json",
        )

    def _send_error_text(
        self, status: int, message: str, close: bool = False
    ) -> None:
        """``close`` ends the connection after this reply: for a request
        whose body is still unread on the socket."""
        self.state.bump(errors=1)
        self._send_text(
            status,
            (f"error: {message}\n").encode("utf-8"),
            headers={"Connection": "close"} if close else None,
        )

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib name)
        self.state.bump(requests=1)
        url = urlsplit(self.path)
        if url.path == "/healthz":
            self._send_text(200, b"ok\n")
            return
        if url.path == "/stats":
            with self.state.counters_lock:
                counters = {
                    **self.state.counters, **self.state.flight_counters
                }
            counters["workers"] = self.state.drain.live_workers()
            counters["store_entries"] = len(self.state.store)
            counters["store_root"] = str(self.state.store.root)
            self._send_json(200, counters)
            return
        if url.path == "/query":
            params = parse_qs(url.query)

            def one(name: str) -> Optional[str]:
                values = params.get(name)
                return values[-1] if values else None

            seed_text = one("seed")
            try:
                seed = None if seed_text is None else int(seed_text)
            except ValueError:
                self._send_error_text(400, "seed must be an integer")
                return
            rows = self.state.store.query(
                experiment=one("experiment"),
                family=one("family"),
                seed=seed,
                digest_prefix=one("digest"),
            )
            self._send_json(200, rows)
            return
        self._send_error_text(404, f"no such endpoint {url.path!r}")

    def do_POST(self) -> None:  # noqa: N802 (stdlib name)
        self.state.bump(requests=1)
        url = urlsplit(self.path)
        # Rejections up to the body read leave the body on the socket,
        # so each of them closes the connection.
        if url.path != "/run":
            self._send_error_text(
                404, f"no such endpoint {url.path!r}", close=True
            )
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self._send_error_text(400, "bad Content-Length", close=True)
            return
        if length <= 0:
            self._send_error_text(
                400, "POST /run needs a JSON body", close=True
            )
            return
        if length > MAX_BODY_BYTES:
            self._send_error_text(413, "request body too large", close=True)
            return
        raw = self.rfile.read(length)
        stream = parse_qs(url.query).get("progress", ["0"])[-1] in (
            "1", "true", "yes",
        )
        try:
            if stream:
                self._run_streaming(self.state.spec_for(_parse_body(raw)))
            else:
                rendered, digest, hit, executed = self.state.run_body(raw)
                self._send_text(
                    200,
                    rendered,
                    headers={
                        "X-Repro-Digest": digest,
                        "X-Repro-Cache": "hit" if hit else "miss",
                        "X-Repro-Executed": str(executed),
                    },
                )
        except ServeError as exc:
            self._send_error_text(exc.status, str(exc))
        except Exception as exc:  # noqa: BLE001 — keep the server up
            self._send_error_text(
                500, f"{type(exc).__name__}: {exc}"
            )

    def _run_streaming(self, spec) -> None:
        """Chunked variant: ``# ...`` progress lines, then the render."""
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()

        def chunk(data: bytes) -> bytes:
            return b"%x\r\n%s\r\n" % (len(data), data)

        def progress(event: str, job, done: int, total: int) -> None:
            self.wfile.write(chunk(
                f"# [{done}/{total}] {job.label} ({event})\n".encode(
                    "utf-8"
                )
            ))

        # Headers and progress chunks are already on the wire, so no
        # failure past this point may fall through to do_POST's
        # catch-all (a second send_response would corrupt the framing):
        # report errors as a final chunk and always terminate the body.
        # The closing chunks and the terminator go out as one write.
        try:
            rendered, digest, hit, executed = self.state.run(
                spec, progress=progress
            )
            tail = chunk(
                f"# digest={digest} cache={'hit' if hit else 'miss'} "
                f"executed={executed}\n".encode("utf-8")
            ) + chunk(rendered)
        except Exception as exc:  # noqa: BLE001 — keep the framing valid
            self.state.bump(errors=1)
            message = (
                str(exc)
                if isinstance(exc, ServeError)
                else f"{type(exc).__name__}: {exc}"
            )
            tail = chunk(f"# error: {message}\n".encode("utf-8"))
        try:
            self.wfile.write(tail + b"0\r\n\r\n")
        except OSError:
            pass  # client hung up mid-stream


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    repro_state: ServeState  # for tests and introspection

    def server_close(self) -> None:
        super().server_close()
        self.repro_state.close()


def make_server(
    store,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
    jobs: int = 1,
) -> ThreadingHTTPServer:
    """Build (but do not start) the serve front-end.

    Binds immediately — read ``server.server_address`` for the resolved
    port when asking for port 0 — and runs via ``serve_forever()``;
    ``server_close()`` also stops the drain.  ``jobs > 1`` starts that
    many worker processes here, on the calling thread; the default runs
    misses inline and never starts one.
    """
    state = ServeState(store, jobs=jobs, verbose=not quiet)
    handler = type(
        "_BoundHandler", (_Handler,), {"state": state, "quiet": quiet}
    )
    try:
        server = _Server((host, port), handler)
    except BaseException:
        state.close()
        raise
    server.repro_state = state
    return server


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
