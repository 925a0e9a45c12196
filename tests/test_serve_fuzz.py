"""``repro serve`` framing under fuzzed raw-socket input.

Whatever bytes a client sends, every reply parses as HTTP/1.1 with a
plain-text body and no ``500``; a reject that leaves request bytes
unread carries ``Connection: close`` and the socket closes after it;
a fresh connection still gets ``/healthz``; and ``/stats`` counts every
reject as an error.

Tier-1 runs a small derandomised budget.  For a soak, select the
``serve-soak`` profile (registered in ``conftest.py``)::

    python -m pytest tests/test_serve_fuzz.py --hypothesis-profile=serve-soak
"""

import json
import socket

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from test_serve import FAMILY, get, serving

BUDGET = (
    {} if settings.get_current_profile_name() == "serve-soak"
    else {"max_examples": 40, "derandomize": True, "deadline": None}
)

#: The error texts of rejects made before a request's body is read.
UNREAD = (
    "bad request line", "bad header line", "request head too large",
    "unsupported method", "bad Content-Length", "needs a JSON body",
    "request body too large",
)

GOOD_BODIES = [
    json.dumps({"family": FAMILY, "overrides": {"seconds": 0.2, "seed": s}})
    .encode("utf-8")
    for s in (1, 2)
]

words = st.binary(max_size=12).filter(lambda b: b"\r\n" not in b)
request_lines = st.one_of(
    st.sampled_from([
        b"POST /run HTTP/1.1", b"POST /run?progress=1 HTTP/1.1",
        b"POST /run HTTP/1.0", b"GET /healthz HTTP/1.1",
        b"GET /stats HTTP/1.0", b"GET /query?seed=x HTTP/1.1",
        b"POST /nope HTTP/1.1", b"PUT /run HTTP/1.1",
    ]),
    st.builds(
        lambda method, target, version: b" ".join((method, target, version)),
        st.sampled_from([b"GET", b"POST", b"PUT", b"get", b""]) | words,
        st.sampled_from([
            b"/run", b"/run?progress=1", b"/healthz", b"/stats",
            b"/query?seed=x", b"/query?family=churn", b"/nope", b"*",
        ]) | words,
        st.sampled_from([b"HTTP/1.1", b"HTTP/1.0", b"HTTP/2", b""]),
    ),
    words,
    st.just(b"GET /" + b"a" * 70_000 + b" HTTP/1.1"),
)
lengths = st.one_of(
    st.integers(-5, 2 ** 40).map(lambda n: b"%d" % n),
    st.sampled_from([b"", b"abc", b" 7 ", b"1_0", b"9" * 5_000]),
)
header_lines = st.one_of(
    st.sampled_from([
        b"Host: x", b"Connection: close", b"Connection: keep-alive",
        b"Expect: 100-continue", b"Transfer-Encoding: chunked",
        b"no colon", b": no name",
    ]),
    st.builds(lambda n: b"Content-Length: " + n, lengths),
    st.builds(lambda k, v: k + b": " + v, words, words),
)
floods = st.sampled_from([
    b"", b"".join(b"X-%d: y\r\n" % i for i in range(8_000)),
])
bodies = st.one_of(st.sampled_from(GOOD_BODIES), st.binary(max_size=64))


@st.composite
def requests(draw):
    """One request's bytes: a line, headers (maybe a flood), a body
    whose length may or may not match what the headers claim."""
    head = draw(request_lines) + b"\r\n"
    head += b"".join(line + b"\r\n" for line in draw(st.lists(
        header_lines, max_size=4
    )))
    body = draw(bodies)
    if draw(st.booleans()):
        head += b"Content-Length: %d\r\n" % len(body)
    return head + draw(floods) + b"\r\n" + body


@pytest.fixture(scope="module")
def fuzzed(tmp_path_factory):
    with serving(tmp_path_factory.mktemp("fuzz")) as (srv, base, _):
        yield srv, base


def replies(data: bytes):
    """Every reply in ``data``, in order, parsed strictly: no byte may
    be left over or belong to no reply."""
    out = []
    while data:
        head, sep, data = data.partition(b"\r\n\r\n")
        assert sep, head[:200]
        status_line, *lines = head.decode("latin-1").split("\r\n")
        version, status, _ = status_line.split(" ", 2)
        assert version == "HTTP/1.1"
        headers = dict(line.split(": ", 1) for line in lines)
        if status == "100":
            assert not headers
            continue
        if headers.get("Transfer-Encoding") == "chunked":
            body = b""
            while True:
                size, _, data = data.partition(b"\r\n")
                chunk, data = data[: int(size, 16)], data[int(size, 16):]
                assert data.startswith(b"\r\n")
                data, body = data[2:], body + chunk
                if not chunk:
                    break
        else:
            length = int(headers["Content-Length"])
            body, data = data[:length], data[length:]
            assert len(body) == length
        out.append((int(status), headers, body))
    return out


def errors(base):
    return json.loads(get(base, "/stats").read())["errors"]


@given(st.lists(requests(), min_size=1, max_size=3))
@settings(
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    **BUDGET,
)
def test_fuzzed_requests_never_break_the_framing(fuzzed, pipeline):
    srv, base = fuzzed
    before = errors(base)
    received = b""
    with socket.create_connection(srv.server_address[:2], timeout=30) as sock:
        try:
            sock.sendall(b"".join(pipeline))
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the server closed on a reject while we were sending
        try:
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                received += data
        except ConnectionResetError:
            pass
    answered = replies(received)
    rejects = 0
    for k, (status, headers, body) in enumerate(answered):
        assert status != 500 and b"Traceback" not in body, body
        assert headers["Content-Type"].startswith("text/plain") or (
            headers["Content-Type"] == "application/json"
        )
        text = body.decode("utf-8", "replace")
        if status >= 400 and any(reason in text for reason in UNREAD):
            assert headers.get("Connection") == "close", text
        if headers.get("Connection") == "close":
            assert k == len(answered) - 1, answered  # nothing after it
        rejects += status >= 400 or any(
            line.startswith("# error: ") for line in text.splitlines()
        )
    assert get(base, "/healthz").read() == b"ok\n"
    assert errors(base) - before == rejects
