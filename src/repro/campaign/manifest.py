"""Per-campaign run manifests: the checkpoint behind ``--resume``.

The :class:`~repro.campaign.store.ResultStore` already makes re-runs
incremental for *successful* jobs; the manifest adds the other half of
the checkpoint: which digests this campaign has **finished with** —
completed or quarantined — so a resumed run can (a) prove it executed
only the remainder and (b) report prior quarantined failures without
burning their retry budget again.

A manifest is one small JSON file, keyed by the *campaign digest* (a
hash over the sorted unique job digests, so "the same sweep" resolves
to the same manifest regardless of experiment order).  It is rewritten
atomically after every job completion, which makes it safe to consult
after a mid-sweep ``kill -9`` of the campaign process itself.  Failure
records are stored in :meth:`~repro.campaign.policy.JobFailure.to_dict`
form, the same shape the spool's ``failed/`` records use.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, Optional

from repro.campaign.policy import JobFailure
from repro.campaign.store import atomic_write

MANIFEST_VERSION = 1


def campaign_digest(digests: Iterable[str]) -> str:
    """Stable identity of a campaign: hash of its sorted unique digests."""
    joined = ",".join(sorted(set(digests)))
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


class RunManifest:
    """Completed/failed digests of one campaign, flushed per update."""

    def __init__(self, path, campaign: str) -> None:
        self.path = Path(path)
        self.campaign = campaign
        self.completed: Dict[str, int] = {}  #: digest -> attempts used
        self.failed: Dict[str, Dict] = {}  #: digest -> failure record

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path, campaign: str) -> "RunManifest":
        """Read an existing manifest; mismatched/corrupt files start
        fresh (they describe some *other* campaign or nothing at all)."""
        manifest = cls(path, campaign)
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, ValueError):
            return manifest
        if (
            not isinstance(data, dict)
            or data.get("version") != MANIFEST_VERSION
            or data.get("campaign") != campaign
        ):
            return manifest
        completed = data.get("completed", {})
        failed = data.get("failed", {})
        if isinstance(completed, dict):
            manifest.completed = {
                str(d): int(n) for d, n in completed.items()
            }
        if isinstance(failed, dict):
            manifest.failed = {str(d): dict(f) for d, f in failed.items()}
        return manifest

    def save(self) -> None:
        """Atomic rewrite (tmp + rename), same discipline as the store."""
        payload = json.dumps(
            {
                "version": MANIFEST_VERSION,
                "campaign": self.campaign,
                "completed": self.completed,
                "failed": self.failed,
            },
            indent=0,
            sort_keys=True,
        )
        atomic_write(self.path, payload.encode())

    # ------------------------------------------------------------------
    def record_done(self, digest: str, attempts: int = 1) -> None:
        self.completed[digest] = attempts
        self.failed.pop(digest, None)
        self.save()

    def record_failed(self, failure: JobFailure) -> None:
        self.failed[failure.digest] = failure.to_dict()
        self.completed.pop(failure.digest, None)
        self.save()

    def failure_for(self, digest: str) -> Optional[JobFailure]:
        data = self.failed.get(digest)
        return None if data is None else JobFailure.from_dict(data)
