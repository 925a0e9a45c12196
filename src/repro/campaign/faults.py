"""Deterministic fault injection for the campaign executor.

A :class:`FaultPlan` tells *worker processes* to misbehave on chosen
``(digest, attempt)`` pairs: die without warning, hang until the
supervisor's timeout kills them, raise, or corrupt the result payload
on its way back over the pipe.  The chaos test suite drives the
supervised executor through every failure mode it claims to survive
with byte-for-byte reproducible runs — the plan is pure data, matched
by digest prefix and attempt number, with no randomness of its own.

Faults apply **only inside worker processes** (``repro.campaign.pool``
sets :data:`in_worker` first thing in each worker).  The inline backend and the
degraded-to-inline fallback never consult the plan: a ``crash`` fault
must never take down the supervising process, and "the pool keeps
dying, inline still completes the campaign" is exactly the degradation
contract under test.  (Job-level failures that must also happen inline
come from an executor instead — :func:`fail_until`.)

Plans are normally passed straight to
:func:`repro.campaign.executor.run_jobs`; the ``REPRO_CAMPAIGN_FAULTS``
environment variable (JSON, same shape as :meth:`FaultPlan.to_json`)
reaches code paths that do not expose the parameter, e.g. CLI-level
chaos tests.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from typing import Optional, Tuple

#: Environment hook consulted when ``run_jobs`` is not given a plan.
FAULTS_ENV = "REPRO_CAMPAIGN_FAULTS"

#: Worker-side flag: ``pool._worker_main`` flips this in the worker so
#: fault actions can never fire in a supervising (or inline) process.
in_worker = False

#: What an injected fault does to the worker:
#:
#: * ``kill``     — SIGKILL self mid-job (segfault/OOM-killer stand-in);
#: * ``exit``     — ``os._exit(3)`` without a reply (hard crash);
#: * ``hang``     — sleep far past any timeout (wedged simulation);
#: * ``raise``    — raise ``RuntimeError`` (transient, retried);
#: * ``fail``     — raise ``ValueError`` (permanent, straight to
#:   quarantine);
#: * ``corrupt``  — return the real result with its payload bytes
#:   flipped after checksumming (detected by the supervisor's integrity
#:   check, costs one attempt).
ACTIONS = ("kill", "exit", "hang", "raise", "fail", "corrupt")

#: Characters a job digest is made of (lowercase sha256 hexdigest) —
#: any prefix of one must stay inside this alphabet.
_HEX = frozenset("0123456789abcdef")


class FaultPlanError(ValueError):
    """A fault plan failed to parse or validate.

    Raised with a message that names what was wrong (bad JSON, missing
    key, unknown action, non-hex digest prefix) so a typo'd
    ``REPRO_CAMPAIGN_FAULTS`` produces a usage error, not a traceback
    from deep inside the executor.
    """


@dataclass(frozen=True)
class Fault:
    """One injected failure: ``action`` on ``digest_prefix`` at
    ``attempt`` (1-based; 0 matches every attempt)."""

    digest_prefix: str
    attempt: int
    action: str

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r} (one of {ACTIONS})"
            )
        if self.attempt < 0:
            raise ValueError("fault attempt must be >= 0 (0 = every attempt)")
        if not _HEX.issuperset(self.digest_prefix):
            # Job digests are lowercase sha256 hex; a prefix outside
            # that alphabet can never match and is always a typo.  The
            # empty prefix stays valid (matches every job).
            raise ValueError(
                f"fault digest_prefix {self.digest_prefix!r} is not a "
                "lowercase-hex digest prefix"
            )

    def matches(self, digest: str, attempt: int) -> bool:
        return digest.startswith(self.digest_prefix) and self.attempt in (
            0,
            attempt,
        )


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of :class:`Fault` rules (first match wins)."""

    faults: Tuple[Fault, ...] = ()

    def action_for(self, digest: str, attempt: int) -> Optional[str]:
        for fault in self.faults:
            if fault.matches(digest, attempt):
                return fault.action
        return None

    def to_json(self) -> str:
        return json.dumps([dataclasses.asdict(f) for f in self.faults])

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan, raising :class:`FaultPlanError` on anything
        malformed — invalid JSON, wrong shape, missing keys, bad
        attempt numbers, unknown actions, non-hex digest prefixes."""
        try:
            entries = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(
                f"fault plan is not valid JSON: {exc}"
            ) from exc
        if not isinstance(entries, list):
            raise FaultPlanError(
                "fault plan must be a JSON array of fault objects, got "
                f"{type(entries).__name__}"
            )
        faults = []
        for index, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise FaultPlanError(
                    f"fault #{index} must be an object, got "
                    f"{type(entry).__name__}"
                )
            try:
                faults.append(
                    Fault(
                        digest_prefix=str(entry["digest_prefix"]),
                        attempt=int(entry.get("attempt", 0)),
                        action=str(entry["action"]),
                    )
                )
            except KeyError as exc:
                raise FaultPlanError(
                    f"fault #{index} is missing required key "
                    f"{exc.args[0]!r}"
                ) from exc
            except (TypeError, ValueError) as exc:
                raise FaultPlanError(f"fault #{index}: {exc}") from exc
        return cls(faults=tuple(faults))

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """The plan named by :data:`FAULTS_ENV`, or ``None``.

        A malformed plan raises :class:`FaultPlanError` naming the
        environment variable, so CLI entry points can turn it into a
        clean usage error instead of a traceback.
        """
        text = os.environ.get(FAULTS_ENV)
        if not text:
            return None
        try:
            return cls.from_json(text)
        except FaultPlanError as exc:
            raise FaultPlanError(f"{FAULTS_ENV}: {exc}") from exc


# ----------------------------------------------------------------------
# reference executors for the chaos suite
# ----------------------------------------------------------------------
def echo(params):
    """Cheap deterministic job executor for queue/store tests: returns
    its own params (optionally sleeping ``sleep_s`` first, so lease and
    timeout machinery has something to race).  Address it as
    ``"repro.campaign.faults:echo"``."""
    import time as _time

    sleep_s = params.get("sleep_s", 0.0)
    if sleep_s:
        _time.sleep(sleep_s)
    return {"echo": params.get("value"), "params": dict(params)}


def fail_until(params):
    """Job executor that raises the builtin exception named
    ``params["error"]`` until the file ``params["marker"]`` exists —
    creating it on the way out, so the *next* attempt, in whichever
    process runs it, succeeds like :func:`echo`.  Without a marker it
    fails every time.  Unlike a fault plan this also fails inline.
    Address it as ``"repro.campaign.faults:fail_until"``."""
    import builtins

    marker = params.get("marker")
    if marker is None or not os.path.exists(marker):
        if marker is not None:
            open(marker, "w").close()
        raise getattr(builtins, params["error"])("fail_until: not yet")
    return echo(params)


def unpicklable_result(params):
    """Job executor that *succeeds* but returns something no pickle can
    carry across the worker pipe — the supervisor must book it as an
    ``unpicklable`` attempt, not hang or die.  Address it as
    ``"repro.campaign.faults:unpicklable_result"``."""
    return lambda: params  # a closure: deterministically unpicklable
