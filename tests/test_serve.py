"""``repro serve``: ScenarioSpec-over-HTTP against the result store.

The contract under test: a POSTed spec renders byte-identical to the
``repro scenario run`` CLI path, a repeat request is served from the
store with zero executions, and the store a CLI sweep warmed answers
serve requests (and vice versa) because both key on the same job
digest.
"""

import contextlib
import hashlib
import http.client
import io
import json
import os
import pathlib
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest
from test_scenario_golden import GOLDEN_DIR, GOLDEN_PARAMS

import repro
from repro.campaign.store import ResultStore
from repro.serve import make_server

#: One cheap spec, reused across tests (each test gets its own store).
FAMILY = "churn"
OVERRIDES = {"seconds": 0.5, "seed": 3}


@contextlib.contextmanager
def serving(tmp_path, **how):
    """``make_server(store, **how)`` on a thread: server, base URL, store."""
    store = ResultStore(tmp_path / "store")
    srv = make_server(store, **how)
    thread = threading.Thread(
        target=srv.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
    )
    thread.start()
    host, port = srv.server_address[:2]
    try:
        yield srv, f"http://{host}:{port}", store
    finally:
        srv.shutdown()
        srv.server_close()


@pytest.fixture()
def server(tmp_path):
    with serving(tmp_path) as served:
        yield served


def post(base, payload, path="/run"):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    return urllib.request.urlopen(request, timeout=30)


def get(base, path):
    return urllib.request.urlopen(base + path, timeout=30)


def cli_render(family, overrides):
    """What ``python -m repro scenario run`` prints for this spec."""
    from repro.scenario.cli import main as scenario_main

    args = ["run", family] + [
        f"--set={k}={v}" for k, v in overrides.items()
    ]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert scenario_main(args) == 0
    return buffer.getvalue().encode("utf-8")


# ----------------------------------------------------------------------
# the round-trip contract
# ----------------------------------------------------------------------
def test_cold_post_renders_byte_identical_to_cli(server):
    _, base, _ = server
    response = post(base, {"family": FAMILY, "overrides": OVERRIDES})
    body = response.read()
    assert response.headers["X-Repro-Cache"] == "miss"
    assert response.headers["X-Repro-Executed"] == "1"
    assert len(response.headers["X-Repro-Digest"]) == 64
    assert body == cli_render(FAMILY, OVERRIDES)


def test_warm_post_serves_from_store_with_zero_executions(server):
    _, base, _ = server
    payload = {"family": FAMILY, "overrides": OVERRIDES}
    cold = post(base, payload)
    cold_body = cold.read()
    warm = post(base, payload)
    assert warm.headers["X-Repro-Cache"] == "hit"
    assert warm.headers["X-Repro-Executed"] == "0"
    assert warm.headers["X-Repro-Digest"] == cold.headers["X-Repro-Digest"]
    assert warm.read() == cold_body


def test_full_spec_json_coalesces_with_family_form(server):
    from repro.scenario.codec import spec_to_json
    from repro.scenario.registry import build_spec

    _, base, _ = server
    cold = post(base, {"family": FAMILY, "overrides": OVERRIDES})
    cold_body = cold.read()
    spec = build_spec(FAMILY, **OVERRIDES)
    again = post(base, {"spec": spec_to_json(spec)})
    # Same spec content -> same digest -> store hit, not a re-run.
    assert again.headers["X-Repro-Cache"] == "hit"
    assert again.read() == cold_body


def test_cli_sweep_warms_the_serve_store(server, tmp_path):
    from repro.scenario.cli import main as scenario_main

    _, base, store = server
    args = [
        "sweep", FAMILY, "--jobs", "1", "--quiet",
        "--cache-dir", str(store.root),
    ] + [f"--set={k}={v}" for k, v in OVERRIDES.items()]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert scenario_main(args) == 0
    response = post(base, {"family": FAMILY, "overrides": OVERRIDES})
    assert response.headers["X-Repro-Cache"] == "hit"
    assert response.headers["X-Repro-Executed"] == "0"


def test_progress_streaming_carries_the_same_render(server):
    _, base, _ = server
    plain = post(base, {"family": FAMILY, "overrides": OVERRIDES}).read()
    streamed = post(
        base,
        {"family": FAMILY, "overrides": OVERRIDES},
        path="/run?progress=1",
    ).read()
    progress_lines = [
        line for line in streamed.splitlines() if line.startswith(b"#")
    ]
    assert progress_lines  # at least the digest/cache trailer
    payload = b"".join(
        line + b"\n"
        for line in streamed.splitlines()
        if not line.startswith(b"#")
    )
    assert payload == plain


# ----------------------------------------------------------------------
# side endpoints
# ----------------------------------------------------------------------
def test_healthz_query_stats(server):
    _, base, _ = server
    assert get(base, "/healthz").read() == b"ok\n"
    post(base, {"family": FAMILY, "overrides": OVERRIDES}).read()
    rows = json.loads(get(base, f"/query?family={FAMILY}").read())
    assert len(rows) == 1
    digest, meta = rows[0]
    assert meta["family"] == FAMILY and meta["experiment"] == "scenario"
    assert json.loads(get(base, "/query?family=nonesuch").read()) == []
    stats = json.loads(get(base, "/stats").read())
    assert stats["store_entries"] == 1
    assert stats["executed"] == 1


def test_query_lists_what_another_process_stored_after_start(server):
    """A CLI sweep or spool worker putting into the served store while
    the server runs: ``GET /query`` lists the entry at once."""
    from repro.campaign.job import make_job
    from repro.campaign.store import job_meta

    _, base, store = server
    assert json.loads(get(base, "/query?experiment=late").read()) == []
    job = make_job("late", "k", "repro.campaign.faults:echo", {"seed": 8})
    ResultStore(store.root).put_for_job(job, {"echo": "late"})
    rows = json.loads(get(base, "/query?experiment=late").read())
    assert rows == [[job.digest, job_meta(job)]]
    assert json.loads(get(base, "/query?seed=8").read()) == rows


# ----------------------------------------------------------------------
# error handling: bad requests never kill the server
# ----------------------------------------------------------------------
def expect_error(base, payload, status, path="/run"):
    with pytest.raises(urllib.error.HTTPError) as err:
        post(base, payload, path=path)
    assert err.value.code == status
    return err.value.read().decode()


def test_error_paths(server):
    _, base, _ = server
    assert "unknown scenario family" in expect_error(
        base, {"family": "nonesuch"}, 404
    )
    assert "either 'spec' or 'family'" in expect_error(base, {}, 400)
    expect_error(base, {"family": FAMILY, "overrides": {"bogus": 1}}, 400)
    expect_error(base, [1, 2, 3], 400)  # body must be an object
    # Malformed raw body
    request = urllib.request.Request(
        base + "/run", data=b"{not json", method="POST"
    )
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(request, timeout=30)
    assert err.value.code == 400
    # Unknown endpoints
    with pytest.raises(urllib.error.HTTPError) as err:
        get(base, "/nonesuch")
    assert err.value.code == 404
    # The server is still alive and serving after all of that.
    assert get(base, "/healthz").read() == b"ok\n"


def spec_json_with(**fields):
    """``{"spec": ...}`` for the test spec, some fields replaced."""
    from repro.scenario.codec import spec_to_json
    from repro.scenario.registry import build_spec

    encoded = spec_to_json(build_spec(FAMILY, **OVERRIDES))
    for pair in encoded["@dataclass"][1]:
        pair[1] = fields.get(pair[0], pair[1])
    return json.dumps({"spec": encoded}).encode("utf-8")


@pytest.mark.parametrize("raw, message", [
    (b'{"family": "churn", "overrides": {"seconds": 1e309}}',
     "seconds must be a finite number, got inf"),
    (b'{"family": "churn", "overrides": {"seconds": NaN}}',
     "seconds must be a finite number, got nan"),
    (b'{"family": "bursty", "overrides": {"warmup_s": -Infinity}}',
     "warmup_s must be a finite number, got -inf"),
    (spec_json_with(seconds=float("inf")),
     "decoded spec is invalid: seconds must be a finite number, got inf"),
], ids=["1e309", "NaN", "-Infinity", "codec"])
def test_admission_refuses_non_finite_numbers(tmp_path, raw, message):
    """``json`` reads ``1e309`` as ``inf`` and takes ``NaN``; a spec
    holding either would pass every ``<= 0`` check and never end."""
    from repro.serve import ServeError, ServeState, _parse_body

    state = ServeState(ResultStore(tmp_path / "store"))
    with pytest.raises(ServeError) as err:
        state.spec_for(_parse_body(raw))
    assert (err.value.status, str(err.value)) == (400, message)


@pytest.mark.parametrize("raw", [
    b"[" * 100_000 + b"]" * 100_000,
    b'{"spec": ' + b'{"@tuple": [' * 5_000 + b"1" + b"]}" * 5_000 + b"}",
], ids=["json", "codec"])
@pytest.mark.parametrize("path", ["/run", "/run?progress=1"])
def test_a_body_nested_too_deep_is_the_clients_error(server, raw, path):
    _, base, _ = server
    request = urllib.request.Request(base + path, data=raw)
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(request, timeout=30)
    assert err.value.code == 400
    assert err.value.read() == b"error: request body nests too deeply\n"
    assert json.loads(get(base, "/stats").read())["errors"] == 1


def test_a_spec_whose_tbr_config_nothing_reads_is_a_400(server):
    import dataclasses

    from repro.core.tbr import TbrConfig
    from repro.scenario.codec import spec_to_json
    from repro.scenario.registry import build_spec

    _, base, _ = server
    spec = dataclasses.replace(
        build_spec(FAMILY, **OVERRIDES), scheduler="fifo",
        tbr_config=TbrConfig(work_conserving=True),
    )
    message = expect_error(base, {"spec": spec_to_json(spec)}, 400)
    assert "scheduler 'fifo' takes no tbr_config" in message


def test_spec_decode_refuses_untrusted_dataclass(server):
    _, base, _ = server
    hostile = {
        "spec": {
            "@dataclass": ["subprocess:Popen", [["args", "x"]]],
        }
    }
    message = expect_error(base, hostile, 400)
    assert "refusing dataclass path" in message


def test_spec_decode_refuses_in_package_non_dataclass(server):
    """An in-package path passes the prefix gate but must still be
    refused unless it resolves to a dataclass — a request body may not
    invoke arbitrary repro.* callables."""
    _, base, _ = server
    hostile = {
        "spec": {
            "@dataclass": ["repro.campaign.job:freeze", [["value", 1]]],
        }
    }
    message = expect_error(base, hostile, 400)
    assert "not a dataclass" in message


def test_streaming_error_still_terminates_the_chunked_body(server):
    """An unexpected exception after the chunked headers are on the
    wire must surface as a '# error:' chunk plus the 0-chunk
    terminator — never a second status line mid-stream."""
    srv, base, _ = server
    state = srv.repro_state
    original = state.run

    def boom(spec, progress=None):
        raise RuntimeError("kaboom mid-stream")

    state.run = boom
    try:
        response = post(
            base,
            {"family": FAMILY, "overrides": OVERRIDES},
            path="/run?progress=1",
        )
        body = response.read()  # only returns if the terminator arrived
    finally:
        state.run = original
    assert b"# error: RuntimeError: kaboom mid-stream" in body
    assert get(base, "/healthz").read() == b"ok\n"


# ----------------------------------------------------------------------
# the wire contract: one write per response, TCP_NODELAY, clean rejects
# ----------------------------------------------------------------------
class _RecordingWriter:
    """Stands in for a connection's transport; logs every ``write``."""

    def __init__(self, inner, log):
        self._inner = inner
        self._log = log

    def write(self, data):
        self._log.append(bytes(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture()
def wire(server):
    """The server, its transports' writes and its connections' NODELAY."""
    srv, base, _ = server
    writes, nodelay = [], []
    connection = srv.connection_class

    class Recording(connection):
        def connection_made(self, transport):
            super().connection_made(transport)
            nodelay.append(
                transport.get_extra_info("socket").getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )
            )
            self.transport = _RecordingWriter(transport, writes)

    srv.connection_class = Recording
    return base, writes, nodelay


def writes_of(writes, exchange):
    """What the server wrote while answering ``exchange()``."""
    del writes[:]
    try:
        body = exchange().read()
    except urllib.error.HTTPError as err:
        body = err.read()
    assert body
    return list(writes)


def test_each_non_streamed_response_is_a_single_write(wire):
    base, writes, nodelay = wire
    payload = {"family": FAMILY, "overrides": OVERRIDES}
    exchanges = {
        "miss": lambda: post(base, payload),
        "memoised hit": lambda: post(base, payload),
        "parsed hit": lambda: post(base, dict(payload, overrides=dict(
            reversed(OVERRIDES.items())))),
        "/stats": lambda: get(base, "/stats"),
        "/query": lambda: get(base, f"/query?family={FAMILY}"),
        "/healthz": lambda: get(base, "/healthz"),
        "unknown family": lambda: post(base, {"family": "nonesuch"}),
        "wrong path": lambda: post(base, payload, path="/nope"),
        "unknown endpoint": lambda: get(base, "/nonesuch"),
    }
    for name, exchange in exchanges.items():
        sent = writes_of(writes, exchange)
        assert len(sent) == 1, (name, sent)
        head, _, body = sent[0].partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 ") and body, name
    assert len(nodelay) == len(exchanges) and all(nodelay)


def test_streamed_terminator_shares_a_write_with_the_final_chunk(wire):
    base, writes, _ = wire
    payload = {"family": FAMILY, "overrides": OVERRIDES}
    plain = post(base, payload).read()
    sent = writes_of(
        writes, lambda: post(base, payload, path="/run?progress=1")
    )
    assert sent[-1].endswith(b"\r\n" + plain + b"\r\n0\r\n\r\n")
    assert not any(b"0\r\n\r\n" in write for write in sent[:-1])


def test_rejected_post_does_not_desync_a_keepalive_connection(server):
    """A POST refused before its body is read must not leave that body
    to be parsed as the next request line."""
    srv, base, _ = server
    host, port = srv.server_address[:2]
    body = json.dumps({"family": FAMILY}).encode("utf-8")
    rejected = (
        b"POST /nope HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s"
        % (len(body), body)
    )
    # Pipelined on a raw socket: the reject closes; nothing answers the
    # stray body, and the /healthz behind it is never misparsed.
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(rejected + b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        received = b""
        while True:
            data = sock.recv(65536)
            if not data:
                break
            received += data
    assert received.startswith(b"HTTP/1.1 404 ")
    assert b"\r\nConnection: close\r\n" in received
    assert received.count(b"HTTP/1.") == 1
    assert b"Bad request" not in received and b"<html" not in received.lower()
    # http.client sees the close and re-opens for the next request.
    for path, length, status in (
        ("/nope", "2", 404),
        ("/run", "nope", 400),
        ("/run", None, 400),
        ("/run", str(2 ** 40), 413),
    ):
        conn = http.client.HTTPConnection(host, port, timeout=30)
        conn.putrequest("POST", path)
        if length is not None:
            conn.putheader("Content-Length", length)
        conn.endheaders(b"{}")
        response = conn.getresponse()
        assert response.status == status
        assert response.getheader("Connection") == "close"
        response.read()
        conn.request("GET", "/healthz")
        again = conn.getresponse()
        assert (again.status, again.read()) == (200, b"ok\n")
        conn.close()
    # Every reject was counted, and nothing fell to stdlib's own 400.
    stats = json.loads(get(base, "/stats").read())
    assert stats["errors"] == 5


def test_stats_store_entries_counts_the_entry_files(server):
    _, base, store = server

    def on_disk():
        return len(list(store.root.glob("??/*.pkl")))

    def reported():
        return json.loads(get(base, "/stats").read())["store_entries"]

    assert reported() == on_disk() == 0
    response = post(base, {"family": FAMILY, "overrides": OVERRIDES})
    response.read()
    store.put("ab" * 32, {"unrelated": True})
    assert reported() == on_disk() == 2
    store.path_for(response.headers["X-Repro-Digest"]).unlink()
    assert reported() == on_disk() == 1


# ----------------------------------------------------------------------
# the admission memo
# ----------------------------------------------------------------------
def verdict_and_body(response):
    """``(X-Repro-* headers, body)`` of one POST /run reply."""
    headers = sorted(
        (name, value) for name, value in response.headers.items()
        if name.startswith("X-Repro-")
    )
    assert len(headers) == 3
    return headers, response.read()


@pytest.mark.parametrize("family", sorted(GOLDEN_PARAMS))
def test_memoised_reply_is_byte_identical_to_the_parsed_one(server, family):
    from repro.scenario import build_spec, run_spec, scenario_job
    from repro.scenario.codec import spec_to_json

    srv, base, store = server
    state = srv.repro_state
    spec = build_spec(family, **GOLDEN_PARAMS[family])
    job = scenario_job(spec, key=spec.name)
    store.put_for_job(job, run_spec(spec))
    golden = (GOLDEN_DIR / f"scenario_{family}.txt").read_bytes()
    bodies = (
        {"family": family, "overrides": GOLDEN_PARAMS[family]},
        {"spec": spec_to_json(spec)},
    )
    for seen, body in enumerate(bodies):
        assert len(state.memo) == seen
        parsed = verdict_and_body(post(base, body))
        assert len(state.memo) == seen + 1
        memoised = verdict_and_body(post(base, body))
        assert len(state.memo) == seen + 1
        assert parsed == memoised
        headers, rendered = memoised
        assert rendered == golden
        assert headers == [
            ("X-Repro-Cache", "hit"),
            ("X-Repro-Digest", job.digest),
            ("X-Repro-Executed", "0"),
        ]
    assert state.counters["hits"] == 4 and state.counters["misses"] == 0


def test_memoised_body_whose_entry_vanished_is_a_real_miss(server):
    srv, base, store = server
    state = srv.repro_state
    payload = {"family": FAMILY, "overrides": OVERRIDES}
    cold = post(base, payload)
    cold_body = cold.read()
    digest = cold.headers["X-Repro-Digest"]
    assert list(state.memo.values()) == [digest]
    store.path_for(digest).unlink()
    again = post(base, payload)
    assert again.headers["X-Repro-Cache"] == "miss"
    assert again.headers["X-Repro-Executed"] == "1"
    assert again.headers["X-Repro-Digest"] == digest
    assert again.read() == cold_body
    assert store.contains(digest)  # re-stored
    warm = post(base, payload)
    assert warm.headers["X-Repro-Cache"] == "hit"
    assert warm.read() == cold_body
    assert state.counters == {
        "requests": 3, "hits": 1, "misses": 2, "executed": 2, "errors": 0,
    }


def test_error_bodies_and_streamed_requests_are_not_memoised(server):
    srv, base, _ = server
    state = srv.repro_state
    expect_error(base, {"family": "nonesuch"}, 404)
    expect_error(base, {"family": FAMILY, "overrides": {"bogus": 1}}, 400)
    expect_error(base, {"family": FAMILY, "overrides": {"seconds": -1}}, 400)
    request = urllib.request.Request(base + "/run", data=b"{not json")
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(request, timeout=30)
    assert err.value.code == 400
    post(
        base, {"family": FAMILY, "overrides": OVERRIDES},
        path="/run?progress=1",
    ).read()
    assert state.memo == {}
    assert state.counters["errors"] == 4


@pytest.fixture()
def capped_state(tmp_path, monkeypatch):
    """A ``ServeState`` with a memo of 8 whose ``run`` simulates nothing."""
    import repro.serve as serve

    monkeypatch.setattr(serve, "MEMO_CAP", 8)
    state = serve.ServeState(ResultStore(tmp_path / "store"))
    monkeypatch.setattr(
        state, "run", lambda spec: (b"render\n", "d" * 64, True, 0)
    )
    return state


def raw_body(seed):
    return json.dumps(
        {"family": FAMILY, "overrides": dict(OVERRIDES, seed=seed)}
    ).encode("utf-8")


def test_memo_stays_at_its_cap(capped_state):
    state = capped_state
    raws = [raw_body(seed) for seed in range(8 + 5)]
    for raw in raws:
        state.run_body(raw)
    assert len(state.memo) == 8
    # Oldest out first: the last eight bodies are the ones remembered.
    assert list(state.memo) == [
        hashlib.sha256(raw).digest() for raw in raws[-8:]
    ]


def test_memo_cap_holds_under_concurrent_admission(capped_state):
    state = capped_state
    failures = []

    def admit(worker):
        try:
            for seed in range(150):
                state.run_body(raw_body(worker * 1000 + seed))
                assert len(state.memo) <= 8
        except Exception as exc:  # noqa: BLE001 — reported below
            failures.append(exc)

    threads = [threading.Thread(target=admit, args=(k,)) for k in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert failures == [] and len(state.memo) == 8


def test_kept_renders_stay_at_the_cap(capped_state):
    from repro.scenario.runner import ScenarioResult

    state = capped_state
    digests = [f"{k:02x}" * 32 for k in range(8 + 5)]
    for k, digest in enumerate(digests):
        state.store.put(digest, ScenarioResult(
            f"s{k}", k, "tbr", 1.0, 0.0,
            throughput_mbps={"n1": 1.0}, occupancy={"n1": 0.5},
        ))
        assert state.stored(digest).startswith(f"Scenario s{k} ".encode())
        assert len(state.replies) == min(k + 1, 8)
    # Oldest out first, as in the memo.
    assert list(state.replies) == digests[-8:]


class GetSpy:
    """Counts ``store.get`` calls and passes them through."""

    def __init__(self, store, monkeypatch):
        self.calls, self.get = 0, store.get
        monkeypatch.setattr(store, "get", self)

    def __call__(self, digest):
        self.calls += 1
        return self.get(digest)


def test_a_stored_reply_is_read_from_the_store_once(server, monkeypatch):
    from repro.scenario import build_spec, run_spec, scenario_job
    from repro.scenario.codec import spec_to_json

    srv, base, store = server
    spec = build_spec(FAMILY, **OVERRIDES)
    store.put_for_job(scenario_job(spec, key=spec.name), run_spec(spec))
    spy = GetSpy(store, monkeypatch)
    bodies = [{"family": FAMILY, "overrides": OVERRIDES},
              {"spec": spec_to_json(spec)}]
    replies = [verdict_and_body(post(base, body)) for body in bodies * 3]
    assert spy.calls == 1  # the first request's, which parsed its body
    assert all(reply == replies[0] for reply in replies)
    assert replies[0][1] == cli_render(FAMILY, OVERRIDES)
    # A stream answers from the same render.
    streamed = post(base, bodies[0], path="/run?progress=1").read()
    assert b" cache=hit executed=0\n" in streamed
    assert streamed.endswith(replies[0][1]) and spy.calls == 1
    assert srv.repro_state.counters["hits"] == 7


def test_a_leader_leaves_its_render_for_the_first_repeat(server, monkeypatch):
    srv, base, store = server
    payload = {"family": FAMILY, "overrides": OVERRIDES}
    cold = verdict_and_body(post(base, payload))
    spy = GetSpy(store, monkeypatch)
    warm = verdict_and_body(post(base, payload))
    assert spy.calls == 0
    assert warm[1] == cold[1]
    assert dict(warm[0])["X-Repro-Cache"] == "hit"


def test_an_entry_rewritten_under_its_digest_is_read_again(
    server, monkeypatch
):
    from repro.campaign.store import encode_entry
    from repro.scenario import build_spec, run_spec

    srv, base, store = server
    payload = {"family": FAMILY, "overrides": OVERRIDES}
    cold = verdict_and_body(post(base, payload))
    digest = dict(cold[0])["X-Repro-Digest"]
    spy = GetSpy(store, monkeypatch)
    value = run_spec(build_spec(FAMILY, **OVERRIDES))
    # Other metadata, the same result: read, verified, the same reply.
    store.put_entry(digest, encode_entry(value, {"rewritten": True}))
    again = verdict_and_body(post(base, payload))
    assert spy.calls == 1 and again[1] == cold[1]
    assert dict(again[0])["X-Repro-Cache"] == "hit"
    assert verdict_and_body(post(base, payload)) == again
    assert spy.calls == 1
    # A damaged rewrite fails that verification: dropped and re-run.
    damaged = bytearray(encode_entry(value, {"rewritten": True}))
    damaged[-1] ^= 0xFF
    store.put_entry(digest, bytes(damaged))
    rerun = verdict_and_body(post(base, payload))
    # One read found the damage; run_jobs made the other, its own lookup.
    assert spy.calls == 3 and rerun[1] == cold[1]
    assert dict(rerun[0])["X-Repro-Cache"] == "miss"
    assert dict(rerun[0])["X-Repro-Executed"] == "1"
    assert srv.repro_state.counters["executed"] == 2


def test_a_miss_asks_the_memo_once(server, monkeypatch):
    srv, base, store = server
    state = srv.repro_state
    asked = []
    remembered = state.remembered
    monkeypatch.setattr(
        state, "remembered", lambda raw: asked.append(raw) or remembered(raw)
    )
    payload = {"family": FAMILY, "overrides": OVERRIDES}
    digest = post(base, payload).headers["X-Repro-Digest"]
    post(base, payload).read()
    store.path_for(digest).unlink()
    post(base, payload).read()
    assert len(asked) == 3  # one per request, misses included
    assert state.counters["misses"] == 2 and state.counters["hits"] == 1


def test_two_threads_posting_the_same_new_body(server):
    srv, base, _ = server
    state = srv.repro_state
    payload = {"family": FAMILY, "overrides": OVERRIDES}
    replies, barrier = [], threading.Barrier(2)

    def client():
        barrier.wait(timeout=30)
        response = post(base, payload)
        replies.append((response.headers["X-Repro-Digest"], response.read()))

    threads = [threading.Thread(target=client) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert len(replies) == 2 and replies[0] == replies[1]
    assert replies[0][1] == cli_render(FAMILY, OVERRIDES)
    assert list(state.memo.values()) == [replies[0][0]]
    assert state.counters["executed"] == 1
    assert state.counters["hits"] + state.counters["misses"] == 2


def test_rendering_a_result_does_not_import_the_experiments():
    # render_result's table formatter lives beside it, so serving (and
    # the scenario CLI, and every suite workload) never pays for the
    # experiment modules and what they pull in (traces, polling MAC).
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    program = (
        "import sys\n"
        "import repro.serve\n"
        "from repro.scenario.runner import ScenarioResult, render_result\n"
        "text = render_result(ScenarioResult('x', 1, 'tbr', 1.0, 0.0,\n"
        "    throughput_mbps={'n1': 1.0}, occupancy={'n1': 0.5}))\n"
        "assert 'n1' in text, text\n"
        "assert 'repro.experiments' not in sys.modules\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", program],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


# ----------------------------------------------------------------------
# the concurrency contract: single-flight per digest, a drain of workers
# ----------------------------------------------------------------------
@pytest.fixture()
def pooled(tmp_path):
    """A ``jobs=2`` server: its two worker processes are started here,
    before any client thread exists, and must be gone after close."""
    import multiprocessing

    with serving(tmp_path, jobs=2) as (srv, base, _):
        yield srv.repro_state, base
    assert multiprocessing.active_children() == []


def post_all(base, payloads, path="/run"):
    """POST every payload at once, a thread each; ``(status, headers,
    body)`` per payload, in payload order."""
    replies = [None] * len(payloads)
    barrier = threading.Barrier(len(payloads))

    def client(k):
        barrier.wait(timeout=30)
        try:
            response = post(base, payloads[k], path=path)
        except urllib.error.HTTPError as err:
            response = err
        replies[k] = (response.status, response.headers, response.read())

    threads = [
        threading.Thread(target=client, args=(k,))
        for k in range(len(payloads))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    return replies


def fault_plan(*faults):
    """``REPRO_CAMPAIGN_FAULTS`` for ``(attempt, action)`` pairs that
    match every digest."""
    return json.dumps([
        {"digest_prefix": "", "attempt": attempt, "action": action}
        for attempt, action in faults
    ])


def test_distinct_cold_specs_run_side_by_side(pooled):
    state, base = pooled
    specs = [dict(OVERRIDES, seconds=2.0, seed=seed) for seed in (1, 2, 3, 4)]
    replies = post_all(
        base, [{"family": FAMILY, "overrides": spec} for spec in specs]
    )
    for spec, (status, headers, body) in zip(specs, replies):
        assert status == 200
        assert headers["X-Repro-Cache"] == "miss"
        assert headers["X-Repro-Executed"] == "1"
        assert body == cli_render(FAMILY, spec)
    stats = json.loads(get(base, "/stats").read())
    assert stats["executed"] == 4 and stats["followers"] == 0
    assert stats["in_flight_peak"] >= 2 and stats["in_flight"] == 0
    assert stats["workers"] == 2


def test_identical_cold_specs_execute_once(pooled):
    state, base = pooled
    spec = dict(OVERRIDES, seconds=12.0)  # long enough for all to arrive
    replies = post_all(base, [{"family": FAMILY, "overrides": spec}] * 4)
    assert [status for status, _, _ in replies] == [200] * 4
    assert {headers["X-Repro-Cache"] for _, headers, _ in replies} == {"miss"}
    assert sorted(
        headers["X-Repro-Executed"] for _, headers, _ in replies
    ) == ["0", "0", "0", "1"]
    assert {body for _, _, body in replies} == {cli_render(FAMILY, spec)}
    assert state.counters["executed"] == 1
    assert state.counters["misses"] == 4
    assert state.flight_counters["followers"] == 3
    assert state.flights == {}  # the store is the only memory of it


def test_killed_worker_costs_an_attempt_not_the_request(pooled, monkeypatch):
    state, base = pooled
    before = {worker.pid for worker in state.drain.live}
    monkeypatch.setenv("REPRO_CAMPAIGN_FAULTS", fault_plan((1, "kill")))
    payload = {"family": FAMILY, "overrides": OVERRIDES}
    response = post(base, payload)
    assert response.headers["X-Repro-Executed"] == "1"
    assert response.read() == cli_render(FAMILY, OVERRIDES)
    # The dead worker was replaced from the request thread that was
    # supervising it, and the server keeps serving on the new one.
    after = {worker.pid for worker in state.drain.live}
    assert len(after) == 2 and len(after - before) == 1
    assert json.loads(get(base, "/stats").read())["workers"] == 2
    monkeypatch.delenv("REPRO_CAMPAIGN_FAULTS")
    other = dict(OVERRIDES, seed=4)
    replies = post_all(
        base, [{"family": FAMILY, "overrides": other}, payload]
    )
    assert [status for status, _, _ in replies] == [200, 200]
    assert replies[0][2] == cli_render(FAMILY, other)
    assert replies[1][1]["X-Repro-Cache"] == "hit"


def test_failed_leader_fails_its_followers_the_same_way(pooled, monkeypatch):
    state, base = pooled
    # Two crashes keep the leader busy while the followers arrive; the
    # third attempt fails for good.
    monkeypatch.setenv(
        "REPRO_CAMPAIGN_FAULTS",
        fault_plan((1, "kill"), (2, "kill"), (0, "fail")),
    )
    payload = {"family": FAMILY, "overrides": OVERRIDES}
    replies = post_all(base, [payload] * 4)
    assert [status for status, _, _ in replies] == [500] * 4
    texts = {body.decode() for _, _, body in replies}
    assert len(texts) == 1
    assert "scenario failed to execute (exception: ValueError: " in texts.pop()
    assert state.flight_counters["followers"] == 3
    assert state.counters["executed"] == 0 and state.counters["errors"] == 4
    assert state.memo == {} and state.flights == {}
    assert len(state.store) == 0
    # Nothing remembers the failure: the same body now runs and answers.
    monkeypatch.delenv("REPRO_CAMPAIGN_FAULTS")
    response = post(base, payload)
    assert response.headers["X-Repro-Executed"] == "1"
    assert response.read() == cli_render(FAMILY, OVERRIDES)
    assert state.drain.live_workers() == 2


def test_progress_streams_from_a_worker_too(pooled):
    _, base = pooled
    streamed = post(
        base, {"family": FAMILY, "overrides": OVERRIDES},
        path="/run?progress=1",
    ).read()
    lines = streamed.splitlines(keepends=True)
    marks = [line for line in lines if line.startswith(b"#")]
    assert marks[0].startswith(b"# [1/1] ") and b"(executed)" in marks[0]
    assert b"cache=miss executed=1" in marks[-1]
    payload = b"".join(line for line in lines if not line.startswith(b"#"))
    assert payload == cli_render(FAMILY, OVERRIDES)


def wait_for(condition, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, condition
        time.sleep(0.005)


def test_a_streaming_client_that_hangs_up_fails_no_one_else(
    tmp_path, monkeypatch
):
    """Its progress sink raises; the run still lands, counts as
    executed, and the request following it gets the render."""
    from repro.scenario import build_spec, scenario_job
    from repro.serve import ServeState

    store = ResultStore(tmp_path / "store")
    state = ServeState(store)
    spec = build_spec(FAMILY, **OVERRIDES)
    put = store.put_entry

    def put_once_followed(digest, entry):
        wait_for(lambda: state.flight_counters["followers"] == 1)
        put(digest, entry)

    def hung_up(*event):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(store, "put_entry", put_once_followed)
    replies = {}

    def run(name, progress=None):
        try:
            replies[name] = state.run(spec, progress=progress)
        except Exception as exc:  # noqa: BLE001 — compared below
            replies[name] = exc

    leader = threading.Thread(target=run, args=("leader", hung_up))
    leader.start()
    wait_for(lambda: state.flights)
    follower = threading.Thread(target=run, args=("follower",))
    follower.start()
    for thread in (leader, follower):
        thread.join(timeout=60)
        assert not thread.is_alive()
    rendered = cli_render(FAMILY, OVERRIDES)
    digest = scenario_job(spec, key=spec.name).digest
    assert replies == {
        "leader": (rendered, digest, False, 1),
        "follower": (rendered, digest, False, 0),
    }
    assert state.counters["executed"] == 1 and store.contains(digest)


def test_followers_of_a_slow_leader_do_not_delay_a_distinct_miss(pooled):
    """Eight requests wait on one long run; a short, unrelated miss
    arriving behind them takes the other worker and answers first."""
    state, base = pooled
    slow = {"family": FAMILY, "overrides": dict(OVERRIDES, seconds=40.0)}
    short = {"family": FAMILY, "overrides": dict(OVERRIDES, seed=4)}
    finished = {}

    def client(name, payload):
        body = post(base, payload).read()
        finished[name] = (time.monotonic(), body)

    threads = [
        threading.Thread(target=client, args=(f"slow-{k}", slow))
        for k in range(9)
    ]
    for thread in threads:
        thread.start()
    wait_for(lambda: state.flight_counters["followers"] == 8)
    client("short", short)
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert finished["short"][1] == cli_render(FAMILY, short["overrides"])
    assert len({body for _, body in finished.values()}) == 2
    assert all(
        finished["short"][0] < at
        for name, (at, _) in finished.items() if name != "short"
    )
    assert state.counters["executed"] == 2


# ----------------------------------------------------------------------
# what the server owes a raw HTTP/1.x client
# ----------------------------------------------------------------------
class RawClient:
    """One socket, its replies parsed by hand, so that interim replies,
    pipelining and closes stay visible."""

    def __init__(self, base, timeout=30):
        url = urllib.parse.urlsplit(base)
        self.sock = socket.create_connection(
            (url.hostname, url.port), timeout=timeout
        )
        self.buffer = b""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.sock.close()

    def send(self, data):
        self.sock.sendall(data)

    def _fill(self):
        data = self.sock.recv(65536)
        if not data:
            raise EOFError(self.buffer)
        self.buffer += data

    def reply(self):
        """``(status, headers with lower-case names, body)`` of the next
        reply on the wire."""
        while b"\r\n\r\n" not in self.buffer:
            self._fill()
        head, _, self.buffer = self.buffer.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in lines:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0))
        while len(self.buffer) < length:
            self._fill()
        body, self.buffer = self.buffer[:length], self.buffer[length:]
        return int(status_line.split()[1]), headers, body

    def closed(self):
        """True once the server has closed and nothing is left unread."""
        try:
            self._fill()
        except (EOFError, ConnectionResetError):
            return self.buffer == b""
        return False


def raw_post(body, path="/run", extra=b""):
    return (
        b"POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n%s\r\n%s"
        % (path.encode(), len(body), extra, body)
    )


HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"


def test_expect_100_continue_gets_an_interim_reply_first(pooled):
    _, base = pooled
    body = json.dumps({"family": FAMILY, "overrides": OVERRIDES}).encode()
    with RawClient(base) as raw:
        head = raw_post(body, extra=b"Expect: 100-continue\r\n")
        raw.send(head[: -len(body)])
        assert raw.reply()[0] == 100
        raw.send(body)
        status, headers, rendered = raw.reply()
        assert (status, headers["x-repro-cache"]) == (200, "miss")
        assert rendered == cli_render(FAMILY, OVERRIDES)
        raw.send(HEALTHZ)  # still a keep-alive connection
        assert raw.reply()[::2] == (200, b"ok\n")


@pytest.mark.parametrize("request_head", [
    b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    b"GET /healthz HTTP/1.0\r\n\r\n",
])
def test_the_server_closes_when_the_client_asks_to(pooled, request_head):
    _, base = pooled
    with RawClient(base) as raw:
        raw.send(request_head)
        assert raw.reply()[::2] == (200, b"ok\n")
        assert raw.closed()
    # HTTP/1.0 may ask for keep-alive, and then gets it.
    with RawClient(base) as raw:
        for _ in range(2):
            raw.send(b"GET /healthz HTTP/1.0\r\n"
                     b"Connection: keep-alive\r\n\r\n")
            assert raw.reply()[::2] == (200, b"ok\n")


def test_a_half_closed_client_still_gets_its_replies(server):
    """A client may shut its sending side once its requests are out."""
    _, base, _ = server
    body = json.dumps({"family": FAMILY, "overrides": OVERRIDES}).encode()
    with RawClient(base) as raw:
        raw.send(raw_post(body) + HEALTHZ)
        raw.sock.shutdown(socket.SHUT_WR)
        status, headers, rendered = raw.reply()
        assert (status, headers["x-repro-cache"]) == (200, "miss")
        assert rendered == cli_render(FAMILY, OVERRIDES)
        assert raw.reply()[::2] == (200, b"ok\n")
        assert raw.closed()


def test_pipelined_requests_are_answered_in_order(pooled):
    state, base = pooled
    body = json.dumps({"family": FAMILY, "overrides": OVERRIDES}).encode()
    expected = cli_render(FAMILY, OVERRIDES)
    assert post(base, {"family": FAMILY, "overrides": OVERRIDES}).read() == (
        expected
    )
    assert len(state.memo) == 1
    with RawClient(base) as raw:
        raw.send(raw_post(body) + HEALTHZ + raw_post(body))
        first, health, last = raw.reply(), raw.reply(), raw.reply()
    assert health[::2] == (200, b"ok\n")
    for status, headers, rendered in (first, last):
        assert (status, headers["x-repro-cache"]) == (200, "hit")
        assert rendered == expected
    assert state.counters["hits"] == 2


# ----------------------------------------------------------------------
# orderly shutdown
# ----------------------------------------------------------------------
def live_processes():
    """``{pid: parent pid}`` of every process that is not a zombie."""
    found = {}
    for stat in pathlib.Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:
            continue  # gone between the glob and the read
        if fields[0] != "Z":
            found[int(stat.parent.name)] = int(fields[1])
    return found


def test_sigterm_leaves_no_worker_behind(tmp_path):
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--jobs",
         "2", "--cache-dir", str(tmp_path / "store")],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    try:
        banner = server.stdout.readline()
        base = banner.split()[2]
        assert base.startswith("http://127.0.0.1:"), banner
        response = post(base, {"family": FAMILY, "overrides": OVERRIDES})
        assert response.headers["X-Repro-Executed"] == "1"
        family = [
            pid for pid, parent in live_processes().items()
            if parent == server.pid
        ]
        assert len(family) >= 2  # the two workers (and their tracker)
        server.terminate()
        deadline = time.monotonic() + 2.0
        assert server.wait(timeout=10) == 0
        while left := set(family) & set(live_processes()):
            assert time.monotonic() < deadline, left
            time.sleep(0.02)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        server.stdout.close()
