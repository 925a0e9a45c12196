"""The result store: one checksummed entry file per result, one
quarantine record per job that never produced one.

:class:`ResultStore` is the campaign subsystem's one storage class.
Each finished job's result is one **entry** file under its digest (see
:attr:`repro.campaign.job.Job.digest`, which already folds in the schema
salt — invalidation is automatic when the job encoding changes, and
``--force`` simply bypasses lookups while still refreshing entries).

An entry is the only record of its result.  Its layout::

    repro-cache/2\\n
    <SHA-256 hex of everything below>\\n
    <metadata JSON, one line, sorted keys>\\n
    <pickled payload>

The metadata line is :func:`job_meta` of the job that produced it
(``{}`` for a bare :meth:`ResultStore.put`).  The checksum covers the
metadata line and the payload and is verified on every read, so silent
corruption — a flipped bit, a truncated write, a partial disk — is
detected deterministically rather than by unpickle luck, and the
damaged entry is dropped so the next run refreshes it.  A put is one
:func:`atomic_write`, so a killed campaign never leaves a truncated
entry behind; temp files orphaned by a process that died *between* the
write and the rename are swept on open (their embedded writer pid no
longer exists).

A job that exhausted its attempts leaves the other kind of file under
its digest instead, the **quarantine record** ``<dd>/<digest>.failed``:
:meth:`~repro.campaign.policy.JobFailure.to_dict` as one sorted-keys
JSON line, also one :func:`atomic_write`.  It is what ``repro campaign
--resume`` replays without spending attempts; a record that does not
parse reads as no record, so its job is attempted again.  A result
always wins: no record is written beside an entry.  Listing, queries
and verification see entries only.

What an opaque blob store cannot answer comes from the entries
themselves:

* **query/stat** answer "which results do I have for this experiment /
  family / seed?" by reading each entry's header — three short lines,
  never the payload, never an unpickle (``repro campaign query``).
  Nothing is cached in memory, so every store open on a directory
  sees what any process put there, the moment its rename lands;
* **incremental-sweep planning**: :meth:`ResultStore.plan` splits a
  batch of jobs into ``(cached, missing)`` by probing entry presence,
  so a 10,000-config sweep enumerates everything but executes only the
  uncached remainder (``--missing-only``).

This module also owns the store-root resolution rule that fixes the
old relative-path footgun: ``.repro-cache/campaign`` used to resolve
against the process CWD, silently growing a second cold cache when a
campaign ran from a subdirectory.  :func:`default_store_root` resolves
against the ``REPRO_CACHE_DIR`` environment variable when set, else
against the repository root found by walking up from the CWD.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.campaign.job import Job, thaw
from repro.campaign.policy import JobFailure

#: First line of every entry; bump the version for incompatible layout
#: changes (old entries then read as corrupt -> miss -> refresh).
MAGIC = b"repro-cache/2\n"

#: Unparsable temp files older than this are swept regardless of pid.
STALE_TMP_AGE_S = 3600.0

#: Environment override for the store root (absolute or CWD-relative).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Store directory relative to the resolved root (kept from PR 2, so an
#: existing checkout's warm cache stays warm after the refactor).
DEFAULT_CACHE_DIRNAME = ".repro-cache/campaign"

#: Files whose presence marks a directory as the repository root.
_ROOT_MARKERS = (".git", "setup.py", "pyproject.toml")


def _encode(value: Any, meta: Dict[str, Any]) -> bytes:
    body = (
        json.dumps(meta, sort_keys=True).encode("ascii")
        + b"\n"
        + pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    )
    checksum = hashlib.sha256(body).hexdigest().encode("ascii")
    return MAGIC + checksum + b"\n" + body


class CacheCorruption(Exception):
    """An entry's header or checksum did not verify."""


def _decode(blob: bytes) -> Any:
    if not blob.startswith(MAGIC):
        raise CacheCorruption("missing or unknown header magic")
    rest = blob[len(MAGIC):]
    newline = rest.find(b"\n")
    if newline != 64:  # sha256 hex digest length
        raise CacheCorruption("malformed checksum line")
    checksum, body = rest[:newline], rest[newline + 1:]
    actual = hashlib.sha256(body).hexdigest().encode("ascii")
    if actual != checksum:
        raise CacheCorruption(
            f"metadata + payload checksum mismatch ({len(body)} bytes)"
        )
    try:
        return pickle.loads(body.partition(b"\n")[2])
    except Exception as exc:
        raise CacheCorruption(
            f"checksummed payload failed to unpickle: "
            f"{type(exc).__name__}: {exc}"
        )


def _read_meta(path: Path) -> Optional[Dict[str, Any]]:
    """An entry's metadata line, read from its header alone; ``None``
    when the file is gone or its header is not this layout's.  The
    payload is never read, so neither is the checksum verified: a
    damaged entry is listed until a ``get`` or ``verify-cache`` finds
    it."""
    try:
        with open(path, "rb") as fh:
            if fh.readline() != MAGIC:
                return None
            fh.readline()  # the checksum
            meta = json.loads(fh.readline())
    except (OSError, ValueError):
        return None
    return meta if isinstance(meta, dict) else None


def atomic_write(path: Path, data: bytes) -> None:
    """Write-then-rename, so readers see the old file or the new one,
    never a torn one.  The temp name ends in the writer's pid, which is
    what lets a store sweep the orphans of dead writers on open, and
    carries its thread too: two request threads of one server putting
    the same digest must not share a temp file (the second rename would
    find it gone)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(
        f".{path.name}.{threading.get_ident():x}.{os.getpid()}.tmp"
    )
    tmp.write_bytes(data)
    os.replace(tmp, path)


def append_json_line(path: Path, record: Dict[str, Any]) -> None:
    """Append ``record`` as one durable JSONL line.  One ``write()`` of
    one line in append mode: concurrent writers (spool workers sharing
    the directory) interleave at line granularity, never mid-line, for
    small records; a killed writer costs at most its own line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def unlink_quietly(path: Path) -> bool:
    """Remove a file that may already be gone, or be another process's
    to remove; whether this call removed it."""
    try:
        path.unlink()
        return True
    except OSError:
        return False


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


def repo_root(start: Optional[Path] = None) -> Optional[Path]:
    """The nearest enclosing repository root, or ``None``.

    Walks up from ``start`` (default: CWD) looking for a marker file —
    ``.git``, ``setup.py`` or ``pyproject.toml`` — so a campaign run
    from ``src/`` or ``tests/`` lands in the same store as one run from
    the checkout root.
    """
    here = (Path.cwd() if start is None else Path(start)).resolve()
    for candidate in (here, *here.parents):
        if any((candidate / marker).exists() for marker in _ROOT_MARKERS):
            return candidate
    return None


def default_store_root() -> Path:
    """Where the result store lives when no ``--cache-dir`` is given.

    Resolution order: ``REPRO_CACHE_DIR`` (used verbatim), else
    ``<repo root>/.repro-cache/campaign``, else — outside any
    repository — the old CWD-relative default.
    """
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    root = repo_root()
    if root is not None:
        return root / DEFAULT_CACHE_DIRNAME
    return Path(DEFAULT_CACHE_DIRNAME)


def job_meta(job: Job) -> Dict[str, Any]:
    """Entry metadata for one job: experiment, key, family, seed.

    ``family`` and ``seed`` come from the job's own config: a scenario
    job carries its :class:`~repro.scenario.spec.ScenarioSpec` (family
    is the spec name before any ``[overrides]`` suffix, seed is the
    spec seed); any other job falls back to its experiment name and a
    top-level ``seed`` param when present.  Pure metadata — nothing
    here feeds the digest.
    """
    family: Optional[str] = job.experiment
    seed: Optional[int] = None
    try:
        params = thaw(job.params)
    except Exception:
        params = None
    if isinstance(params, dict):
        raw_seed = params.get("seed")
        if isinstance(raw_seed, (int, float)):
            seed = int(raw_seed)
        spec = params.get("spec")
        # Duck-typed so the store never imports the scenario package
        # (which imports campaign right back).
        name = getattr(spec, "name", None)
        spec_seed = getattr(spec, "seed", None)
        if isinstance(name, str) and name:
            family = name.partition("[")[0]
        if isinstance(spec_seed, int):
            seed = spec_seed
    return {
        "experiment": job.experiment,
        "key": job.key if isinstance(job.key, str) else repr(job.key),
        "family": family,
        "seed": seed,
        "executor": job.executor,
    }


@dataclass
class SweepPlan:
    """What :meth:`ResultStore.plan` decided about a batch of jobs.

    ``cached``/``missing`` partition the *requested* jobs; the unique
    counts collapse duplicate digests (coalescing), so
    ``missing_digests`` is exactly the set of simulations an
    incremental sweep still has to run.
    """

    cached: List[Job] = field(default_factory=list)
    missing: List[Job] = field(default_factory=list)
    cached_digests: List[str] = field(default_factory=list)
    missing_digests: List[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.cached) + len(self.missing)

    def summary(self) -> str:
        return (
            f"plan: {len(self.cached)} cached, {len(self.missing)} missing "
            f"of {self.total} job(s) "
            f"({len(self.cached_digests)} + {len(self.missing_digests)} "
            "unique digests)"
        )


class ResultStore:
    """Digest-keyed checksummed entries under one root directory, each
    carrying the metadata its queries filter on."""

    def __init__(self, root=None) -> None:
        self.root = Path(default_store_root() if root is None else root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.swept_tmp = self._sweep_stale_tmp()

    def path_for(self, digest: str) -> Path:
        # Two-level fan-out keeps directory listings short even for
        # campaigns with thousands of jobs.
        return self.root / digest[:2] / f"{digest}.pkl"

    def _sweep_stale_tmp(self) -> int:
        """Remove temp files whose writer died mid-``put``.

        Temp names end in the writer's pid
        (``.<name>.<thread>.<pid>.tmp``); a
        temp whose pid is no longer alive is an orphan from a crashed
        process and can never be renamed into place.  Unparsable temps
        are only removed once they are clearly ancient, so a concurrent
        writer's live temp is never yanked out from under it.
        """
        removed = 0
        for tmp in self.root.glob("*/.*.tmp"):
            try:
                pid = int(tmp.name.rsplit(".", 2)[-2])
            except (ValueError, IndexError):
                pid = None
            if pid is not None:
                if pid == os.getpid() or _pid_alive(pid):
                    continue
            else:
                try:
                    age = time.time() - tmp.stat().st_mtime
                except OSError:
                    continue
                if age < STALE_TMP_AGE_S:
                    continue
            removed += unlink_quietly(tmp)
        return removed

    # ------------------------------------------------------------------
    # entries
    # ------------------------------------------------------------------
    def get(self, digest: str) -> Tuple[bool, Any]:
        """``(hit, value)``; corrupt or missing entries are misses."""
        path = self.path_for(digest)
        try:
            return True, _decode(path.read_bytes())
        except CacheCorruption:
            # Detected corruption: drop the entry so a rerun refreshes
            # it instead of serving damaged bytes.
            unlink_quietly(path)
        except OSError:
            pass
        return False, None

    def put(
        self, digest: str, value: Any, meta: Optional[Dict[str, Any]] = None
    ) -> Path:
        path = self.path_for(digest)
        atomic_write(path, _encode(value, meta or {}))
        return path

    def put_for_job(self, job: Job, value: Any) -> Path:
        """``put`` with the job's own metadata in the entry's header."""
        return self.put(job.digest, value, meta=job_meta(job))

    def entry_digests(self) -> List[str]:
        """Digests of the entry files actually on disk, sorted."""
        return sorted(p.stem for p in self.root.glob("??/*.pkl"))

    def __len__(self) -> int:
        return len(self.entry_digests())

    # ------------------------------------------------------------------
    # quarantine records
    # ------------------------------------------------------------------
    def _failure_path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.failed"

    def put_failure(self, failure: JobFailure) -> None:
        """Record a quarantined job, unless its digest has an entry: a
        result always wins (one can only be there under ``--force``)."""
        if self.contains(failure.digest):
            return
        record = json.dumps(failure.to_dict(), sort_keys=True) + "\n"
        atomic_write(self._failure_path(failure.digest), record.encode())

    def failure(self, digest: str) -> Optional[JobFailure]:
        """The quarantine record of ``digest``; ``None`` when there is
        none or it does not parse, so the job is simply attempted
        again."""
        try:
            data = json.loads(self._failure_path(digest).read_bytes())
            return JobFailure.from_dict(data)
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return None

    def drop_failure(self, digest: str) -> bool:
        return unlink_quietly(self._failure_path(digest))

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def verify_summary(self) -> Tuple[int, List[Tuple[str, str, str]]]:
        """``(total_entries, bad_entries)`` with one ``(digest, status,
        detail)`` per bad entry, sorted by digest; ``status`` is
        ``"corrupt"`` or ``"unreadable"``.  Read-only: damaged entries
        are *reported*, not dropped (``get`` drops them, ``verify-cache
        --purge`` in the CLI does it in bulk)."""
        digests = self.entry_digests()
        bad = []
        for digest in digests:
            try:
                _decode(self.path_for(digest).read_bytes())
            except OSError as exc:
                detail = f"{type(exc).__name__}: {exc}"
                bad.append((digest, "unreadable", detail))
            except CacheCorruption as exc:
                bad.append((digest, "corrupt", str(exc)))
        return len(digests), bad

    # ------------------------------------------------------------------
    # presence and planning (no payload reads)
    # ------------------------------------------------------------------
    def contains(self, digest: str) -> bool:
        """Entry presence by file existence — no read at all."""
        return self.path_for(digest).exists()

    def plan(self, jobs: Iterable[Job]) -> SweepPlan:
        """Split ``jobs`` into already-stored vs still-to-run.

        One ``contains`` probe per unique digest: a 10,000-config sweep
        plans with 10,000 stats, zero payload reads.
        """
        plan = SweepPlan()
        present: Dict[str, bool] = {}
        for job in jobs:
            digest = job.digest
            hit = present.get(digest)
            if hit is None:
                hit = self.contains(digest)
                present[digest] = hit
                (plan.cached_digests if hit else plan.missing_digests).append(
                    digest
                )
            (plan.cached if hit else plan.missing).append(job)
        return plan

    # ------------------------------------------------------------------
    # queries (entry headers only, payloads never unpickled)
    # ------------------------------------------------------------------
    def query(
        self,
        *,
        experiment: Optional[str] = None,
        family: Optional[str] = None,
        seed: Optional[int] = None,
        digest_prefix: Optional[str] = None,
    ) -> List[Tuple[str, Dict[str, Any]]]:
        """``(digest, meta)`` of every entry matching every given
        filter, sorted by digest: one header read per entry on disk."""
        rows: List[Tuple[str, Dict[str, Any]]] = []
        for digest in self.entry_digests():
            if digest_prefix and not digest.startswith(digest_prefix):
                continue
            meta = _read_meta(self.path_for(digest))
            if meta is None:
                continue
            if experiment is not None and meta.get("experiment") != experiment:
                continue
            if family is not None and meta.get("family") != family:
                continue
            if seed is not None and meta.get("seed") != seed:
                continue
            rows.append((digest, meta))
        return rows

    def stat(self, digest: str) -> Optional[Dict[str, Any]]:
        """Entry facts without unpickling: metadata + size + mtime."""
        path = self.path_for(digest)
        try:
            st = path.stat()
        except OSError:
            return None
        return {
            "digest": digest,
            "size_bytes": st.st_size,
            "mtime": st.st_mtime,
            **(_read_meta(path) or {}),
        }

    @property
    def index(self) -> SimpleNamespace:
        """``index.entries``: ``{digest: meta}`` of :meth:`query`, read
        afresh on every access.  The benchmark suite's traced passes
        count and compare it; nothing in the package reads it."""
        return SimpleNamespace(entries=dict(self.query()))
