"""Failure taxonomy and retry policy for campaign execution.

One job attempt can fail five ways; everything downstream (retry,
quarantine, reporting) keys off the attempt's *kind*:

* ``crash``          — the worker process died mid-job (SIGKILL, OOM,
  ``os._exit``); transient: the job itself may be fine.
* ``timeout``        — the job exceeded its wall-clock budget and the
  supervisor killed the worker; transient.
* ``corrupt-result`` — the result payload failed its integrity check on
  the way back (checksum mismatch or undecodable bytes); transient.
* ``unpicklable``    — the worker could not serialize the result at
  all; transient by policy (it costs attempts, then quarantines with
  the serialization traceback, instead of killing the campaign).
* ``exception``      — the job raised.  Classified by exception type:
  deterministic config/programming errors (:data:`PERMANENT_EXCEPTIONS`)
  are *permanent* — retrying a ``ValueError`` replays it — and go
  straight to quarantine; anything else (I/O, resources) is transient.

Backoff is exponential with *seeded* jitter: the delay before retry
``n`` of a digest is a pure function of ``(policy.seed, digest, n)``,
so a rerun of a flaky campaign schedules byte-identical retries — the
chaos suite asserts the schedule, not just "it retried".
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Exception type names whose re-raise is certain: retrying burns
#: attempts without new information, so they quarantine immediately.
PERMANENT_EXCEPTIONS = frozenset(
    {
        "TypeError",
        "ValueError",
        "KeyError",
        "AttributeError",
        "ImportError",
        "ModuleNotFoundError",
        "NotImplementedError",
        "AssertionError",
        "RecursionError",
    }
)

#: Attempt kinds that never depend on the exception type.
TRANSIENT_KINDS = frozenset(
    {"crash", "timeout", "corrupt-result", "unpicklable"}
)


def is_permanent(kind: str, exc_type: Optional[str]) -> bool:
    """Whether an attempt failure is certain to recur."""
    if kind in TRANSIENT_KINDS:
        return False
    return exc_type in PERMANENT_EXCEPTIONS


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded attempts with deterministic exponential backoff.

    ``backoff_s(digest, attempt)`` is the delay scheduled *after* a
    failed ``attempt`` (1-based): ``base * factor**(attempt-1)``,
    stretched by up to ``jitter_frac`` using a RNG seeded from
    ``(seed, digest, attempt)`` — reproducible across processes and
    runs, yet decorrelated across digests so a burst of failures does
    not retry in lockstep.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    jitter_frac: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter_frac <= 1.0:
            raise ValueError("jitter_frac must be in [0, 1]")

    def backoff_s(self, digest: str, attempt: int) -> float:
        base = self.backoff_base_s * self.backoff_factor ** (attempt - 1)
        if base <= 0.0:
            return 0.0
        rng = random.Random(f"{self.seed}:{digest}:{attempt}")
        return base * (1.0 + self.jitter_frac * rng.random())

    def schedule(self, digest: str) -> List[float]:
        """Every backoff this policy would apply to ``digest`` — the
        delays after attempts ``1 .. max_attempts-1``."""
        return [
            self.backoff_s(digest, attempt)
            for attempt in range(1, self.max_attempts)
        ]


@dataclass
class AttemptRecord:
    """What one failed attempt looked like."""

    attempt: int
    kind: str  #: crash | timeout | corrupt-result | unpicklable | exception
    detail: str
    worker_pid: Optional[int] = None
    #: delay scheduled before the next attempt (None on the final one).
    backoff_s: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AttemptRecord":
        """Lenient: a spool attempt line carries extra keys, and a torn
        one may lack some."""
        return cls(
            attempt=int(data.get("attempt", 0)),
            kind=str(data.get("kind", "crash")),
            detail=str(data.get("detail", "")),
            worker_pid=data.get("worker_pid"),
            backoff_s=data.get("backoff_s"),
        )


def book(
    retry: RetryPolicy,
    digest: str,
    attempt: int,
    kind: str,
    detail: str,
    pid: Optional[int],
    exc_type: Optional[str],
) -> Tuple[AttemptRecord, bool]:
    """The attempt state machine: one failed attempt in, retry or
    quarantine out.

    Returns ``(record, permanent)``.  The attempt is to be retried,
    ``record.backoff_s`` seconds from now, iff ``record.backoff_s`` is
    not ``None``; otherwise the job is quarantined.  Every backend books
    through here, so the taxonomy and the seeded schedule cannot drift
    between them.
    """
    record = AttemptRecord(
        attempt=attempt, kind=kind, detail=detail, worker_pid=pid
    )
    permanent = is_permanent(kind, exc_type)
    if not permanent and attempt < retry.max_attempts:
        record.backoff_s = retry.backoff_s(digest, attempt)
    return record, permanent


@dataclass
class JobFailure:
    """A quarantined job: every attempt failed, the campaign moved on."""

    digest: str
    experiment: str
    key: object
    label: str
    attempts: List[AttemptRecord] = field(default_factory=list)
    #: the last traceback any attempt produced ("" for pure crashes).
    traceback: str = ""
    #: permanent classification (vs. transient attempts exhausted).
    permanent: bool = False

    @classmethod
    def for_job(
        cls,
        job,
        attempts: Iterable[AttemptRecord] = (),
        traceback: str = "",
        permanent: bool = False,
    ) -> "JobFailure":
        return cls(
            digest=job.digest,
            experiment=job.experiment,
            key=job.key,
            label=job.label,
            attempts=list(attempts),
            traceback=traceback,
            permanent=permanent,
        )

    def to_dict(self) -> Dict[str, Any]:
        """The JSON shape of manifests and spool ``failed/`` records."""
        return {**dataclasses.asdict(self), "key": repr(self.key)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobFailure":
        return cls(
            digest=data["digest"],
            experiment=data["experiment"],
            key=data["key"],
            label=data["label"],
            permanent=bool(data.get("permanent", False)),
            traceback=data.get("traceback", ""),
            attempts=[
                AttemptRecord.from_dict(a) for a in data.get("attempts", [])
            ],
        )

    def summary(self) -> str:
        kinds = ", ".join(a.kind for a in self.attempts)
        cls = "permanent" if self.permanent else "transient"
        return (
            f"{self.label}  digest {self.digest[:12]}  "
            f"{len(self.attempts)} attempt(s) [{kinds}] ({cls})"
        )
