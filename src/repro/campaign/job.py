"""Job descriptors: hashable, picklable simulation configs.

A :class:`Job` names one independent simulation: an *executor* (a pure
function addressed as ``"package.module:function"``) plus its *params*
(a config dict frozen into a hashable tree).  Two jobs with the same
executor and params always produce the same result — experiment
determinism is what makes both the duplicate-config coalescing and the
on-disk cache sound — so the job's identity for caching purposes is a
content digest of exactly those two pieces (plus a schema salt that
invalidates every entry when the job encoding itself changes).

``experiment`` and ``key`` locate the job's result inside one
experiment's ``reduce()`` and are deliberately *not* part of the
digest: a 1-vs-11 FIFO uplink run is the same simulation whether fig3
or fig9 asked for it, and the executor coalesces such duplicates.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from importlib import import_module
from typing import Any, Callable, Dict, Hashable, List, Tuple

#: Version salt folded into every digest.  Bump when the frozen-tree
#: encoding or any executor's semantics change incompatibly: old cache
#: entries then simply stop matching instead of being served stale.
#: (/2: the wire pump drains unobservable tail drops, so the stored
#: ``events_executed``/``events_by_category`` — which render — shrank.)
CACHE_SCHEMA = "repro-campaign/2"

_TAG_TUPLE = "@tuple"
_TAG_DICT = "@dict"
_TAG_SET = "@set"
_TAG_DATA = "@dataclass"


def freeze(value: Any) -> Any:
    """Convert ``value`` into a hashable, picklable, repr-stable tree.

    Primitives pass through; lists/tuples, dicts, sets and dataclass
    instances become tagged tuples.  Dict and set entries are sorted by
    the ``repr`` of their frozen form so insertion order never leaks
    into the digest.
    """
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    if isinstance(value, (list, tuple)):
        return (_TAG_TUPLE, tuple(freeze(v) for v in value))
    if isinstance(value, dict):
        items = tuple(
            sorted(
                ((freeze(k), freeze(v)) for k, v in value.items()),
                key=repr,
            )
        )
        return (_TAG_DICT, items)
    if isinstance(value, (set, frozenset)):
        return (_TAG_SET, tuple(sorted((freeze(v) for v in value), key=repr)))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        fields = tuple(
            (f.name, freeze(getattr(value, f.name)))
            for f in dataclasses.fields(value)
        )
        return (_TAG_DATA, f"{cls.__module__}:{cls.__qualname__}", fields)
    raise TypeError(
        f"cannot freeze {value!r} of type {type(value).__name__}: job params "
        "must be primitives, sequences, dicts, sets or dataclasses"
    )


def _resolve_symbol(spec: str) -> Any:
    module_name, sep, attr = spec.partition(":")
    if not sep or not module_name or not attr:
        raise ValueError(f"expected 'package.module:name', got {spec!r}")
    obj = import_module(module_name)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def thaw(value: Any) -> Any:
    """Inverse of :func:`freeze` (sequences come back as tuples)."""
    if isinstance(value, tuple) and value and value[0] in (
        _TAG_TUPLE,
        _TAG_DICT,
        _TAG_SET,
        _TAG_DATA,
    ):
        tag = value[0]
        if tag == _TAG_TUPLE:
            return tuple(thaw(v) for v in value[1])
        if tag == _TAG_DICT:
            return {thaw(k): thaw(v) for k, v in value[1]}
        if tag == _TAG_SET:
            return frozenset(thaw(v) for v in value[1])
        cls = _resolve_symbol(value[1])
        # freeze() only ever emits @dataclass nodes for dataclass
        # instances, so anything else here is a forged tree (e.g. a
        # decoded request body naming an arbitrary callable).
        if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)):
            raise ValueError(
                f"refusing to thaw {value[1]!r}: resolved object is not "
                "a dataclass"
            )
        return cls(**{name: thaw(v) for name, v in value[2]})
    return value


@dataclass(frozen=True)
class Job:
    """One independent simulation of a campaign.

    ``params`` holds the *frozen* config tree (see :func:`freeze`);
    construct jobs through :func:`make_job`, which freezes a plain
    config dict for you.
    """

    experiment: str
    key: Hashable
    executor: str  # "package.module:function"
    params: Any

    def __post_init__(self) -> None:
        module_name, sep, attr = self.executor.partition(":")
        if not sep or not module_name or not attr:
            raise ValueError(
                f"executor must be 'package.module:function', "
                f"got {self.executor!r}"
            )
        digest = hashlib.sha256(
            repr((CACHE_SCHEMA, self.executor, self.params)).encode("utf-8")
        ).hexdigest()
        object.__setattr__(self, "_digest", digest)

    @property
    def digest(self) -> str:
        """Content address: schema salt + executor + frozen params."""
        return self._digest

    @property
    def label(self) -> str:
        """Human-readable ``experiment:key`` identifier for progress."""
        key = self.key if isinstance(self.key, str) else repr(self.key)
        return f"{self.experiment}:{key}"

    def __getstate__(self) -> Dict[str, Any]:
        return {
            "experiment": self.experiment,
            "key": self.key,
            "executor": self.executor,
            "params": self.params,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self.__post_init__()


def make_job(
    experiment: str,
    key: Hashable,
    executor: str,
    params: Dict[str, Any],
) -> Job:
    """Freeze ``params`` and build the :class:`Job`."""
    return Job(
        experiment=experiment, key=key, executor=executor, params=freeze(params)
    )


def job_params(job: Job) -> Dict[str, Any]:
    """The job's config back as a plain dict (for its executor)."""
    params = thaw(job.params)
    if not isinstance(params, dict):
        raise TypeError(
            f"job {job.label} params must thaw to a dict, "
            f"got {type(params).__name__}"
        )
    return params


def resolve_executor(spec: str) -> Callable[[Dict[str, Any]], Any]:
    """Import the executor function named by ``spec``."""
    fn = _resolve_symbol(spec)
    if not callable(fn):
        raise TypeError(f"executor {spec!r} is not callable")
    return fn


def execute_job(job: Job) -> Any:
    """Run one job in-process and return its (picklable) result."""
    return resolve_executor(job.executor)(job_params(job))
