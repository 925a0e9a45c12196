"""One way to execute a job: the backends are interchangeable.

Inline, the supervised pool, the spool and ``repro serve``'s drain (the
same pool kept alive between calls) differ in *where* an attempt runs
and in nothing else — the attempt, the reply check and the
retry-or-quarantine decision are shared code.  The matrix below runs one
job set covering every outcome through each backend and holds it to the
same results, the same attempt records (the seeded backoff schedule, not
just the count), the same stats and the same store entry bytes; the
table test pins the decision itself.
"""

import itertools
import multiprocessing
from pathlib import Path

import pytest

from repro.campaign import RunManifest, make_job, run_jobs
from repro.campaign.policy import (
    PERMANENT_EXCEPTIONS,
    TRANSIENT_KINDS,
    RetryPolicy,
    book,
)
from repro.campaign.pool import SupervisedPool
from repro.campaign.queue import SpoolQueue
from repro.campaign.store import ResultStore
from repro.serve import ServeState

FAULTS = "repro.campaign.faults"
RETRY = RetryPolicy(max_attempts=2, backoff_base_s=0.01)

BACKENDS = {
    "inline": lambda root, store: dict(workers=1),
    "pool": lambda root, store: dict(queue=SupervisedPool(2)),
    "spool": lambda root, store: dict(
        queue=SpoolQueue(root / "spool", store, workers=2)
    ),
    "serve": lambda root, store: dict(queue=ServeState(store, jobs=2).drain),
}


def matrix_jobs():
    """ok, transient-then-ok, permanent, unpicklable, duplicate digest.

    The marker path is relative (the test runs in its own directory), so
    the digests — and with them the seeded schedule — are the same for
    every backend.
    """
    return [
        make_job("m", "ok", f"{FAULTS}:echo", {"value": 1}),
        make_job(
            "m", "flaky", f"{FAULTS}:fail_until",
            {"value": 2, "error": "RuntimeError", "marker": "flaky.marker"},
        ),
        make_job(
            "m", "poison", f"{FAULTS}:fail_until",
            {"value": 3, "error": "ValueError"},
        ),
        make_job("m", "closure", f"{FAULTS}:unpicklable_result", {"x": 1}),
        make_job("twin", "ok", f"{FAULTS}:echo", {"value": 1}),
    ]


def run_matrix(root, backend):
    root.mkdir()
    Path("flaky.marker").unlink(missing_ok=True)  # every run starts flaky
    store = ResultStore(root / "store")
    manifest = RunManifest(root / "manifest.json", "matrix")
    how = BACKENDS[backend](root, store)
    try:
        outcome = run_jobs(
            matrix_jobs(),
            cache=store,
            retry=RETRY,
            manifest=manifest,
            **how,
        )
    finally:
        queue = how.get("queue")
        if hasattr(queue, "close"):
            queue.close()  # a queue passed in is its caller's to close
    return outcome, store, manifest


def observed(outcome, store, manifest):
    """What the equivalence claim covers: everything a run returned,
    booked and stored."""
    return {
        "results": outcome.results,
        "attempts": {
            failure.label: (
                failure.permanent,
                [(a.kind, a.attempt, a.backoff_s) for a in failure.attempts],
            )
            for failure in sorted(outcome.failures, key=lambda f: f.label)
        },
        "stats": (
            outcome.stats.executed,
            outcome.stats.retried,
            outcome.stats.failed,
            outcome.stats.coalesced,
        ),
        "attempts_used": manifest.completed,
        "entries": {
            digest: store.path_for(digest).read_bytes()
            for digest in store.entry_digests()
        },
    }


@pytest.mark.parametrize("backend", list(BACKENDS))
def test_backends_are_equivalent(tmp_path, monkeypatch, backend):
    monkeypatch.chdir(tmp_path)
    ok, flaky, poison, closure, twin = matrix_jobs()
    got = observed(*run_matrix(tmp_path / backend, backend))

    # Held to first principles ...
    assert set(got["results"]) == {ok, flaky, twin}
    assert got["results"][ok] == got["results"][twin]
    assert got["results"][flaky]["echo"] == 2
    assert got["attempts"] == {
        "m:closure": (
            False,
            [
                ("unpicklable", 1, RETRY.schedule(closure.digest)[0]),
                ("unpicklable", 2, None),
            ],
        ),
        "m:poison": (True, [("exception", 1, None)]),
    }
    # executed ok + flaky; retried flaky + closure; failed poison + closure
    assert got["stats"] == (2, 2, 2, 1)
    assert got["attempts_used"] == {ok.digest: 1, flaky.digest: 2}
    assert set(got["entries"]) == {ok.digest, flaky.digest}
    assert not list(tmp_path.glob(f"{backend}/store/*/.*.tmp"))

    # ... and to the inline run, byte for byte.
    assert got == observed(*run_matrix(tmp_path / "reference", "inline"))
    # Every drain built for it is closed: no worker outlives the test.
    assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# the decision itself
# ----------------------------------------------------------------------
KINDS = sorted(TRANSIENT_KINDS) + ["exception"]
EXC_TYPES = [sorted(PERMANENT_EXCEPTIONS)[0], "OSError", None]
TABLE_RETRY = RetryPolicy(max_attempts=4, backoff_base_s=0.5, seed=7)


@pytest.mark.parametrize(
    "kind, exc_type, attempt",
    list(itertools.product(KINDS, EXC_TYPES, [1, 3, 4])),
)
def test_book_decides_retry_or_quarantine(kind, exc_type, attempt):
    digest = "ab" * 32
    record, permanent = book(
        TABLE_RETRY, digest, attempt, kind, "detail", 123, exc_type
    )
    assert (record.attempt, record.kind, record.detail, record.worker_pid) == (
        attempt, kind, "detail", 123,
    )
    # Only what a job *raised* can be permanent, and only by its type.
    assert permanent == (
        kind == "exception" and exc_type in PERMANENT_EXCEPTIONS
    )
    if permanent or attempt == TABLE_RETRY.max_attempts:
        assert record.backoff_s is None  # quarantine
    else:
        assert record.backoff_s == TABLE_RETRY.schedule(digest)[attempt - 1]
