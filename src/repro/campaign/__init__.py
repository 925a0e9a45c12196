"""Campaign subsystem: declarative sim jobs, parallel execution, caching.

A *campaign* is a batch of independent simulation jobs drawn from any
mix of experiment modules, executed across worker processes and merged
deterministically by job key.  The building blocks:

* :mod:`repro.campaign.job` — hashable, picklable job descriptors with
  a content-addressed digest (config hash + schema salt);
* :mod:`repro.campaign.store` — the one :class:`ResultStore`: on-disk
  results keyed by digest with checksummed entries (silent corruption
  reads as a miss, not a result), a crash-safe index over (experiment,
  family, seed, digest), incremental-sweep planning
  (:meth:`ResultStore.plan`) and index rebuild from the raw entries;
* :mod:`repro.campaign.policy` — the failure taxonomy,
  :class:`RetryPolicy` (bounded attempts, seeded exponential backoff)
  and :func:`~repro.campaign.policy.book`, the one attempt state
  machine: failed attempt in, retry-after or quarantine out;
* :mod:`repro.campaign.pool` — one attempt of one job
  (``_execute_one``) and the check of its reply (``decode_reply``),
  shared by every backend; and the ``workers > 1`` backend itself,
  :class:`~repro.campaign.pool.SupervisedPool`: crash isolation,
  per-job timeouts, degradation when the pool itself keeps dying;
* :mod:`repro.campaign.queue` — :class:`SpoolQueue`, the backend whose
  workers are independent ``repro campaign worker`` processes draining
  a shared directory (atomic-rename job leases, heartbeat-based crash
  reclaim);
* :mod:`repro.campaign.executor` — :func:`run_jobs`: store hit-check,
  duplicate-config coalescing, one ``drain`` through the backend that
  ``workers`` picks (the in-process :class:`Inline` for 1), and
  completion-order-independent merging;
* :mod:`repro.campaign.manifest` — per-campaign checkpoints behind
  ``repro campaign --resume``;
* :mod:`repro.campaign.faults` — deterministic fault injection for the
  chaos test suite;
* :mod:`repro.campaign.cli` — ``python -m repro campaign`` over the one
  experiment table, :data:`repro.experiments.EXPERIMENTS`.

The CLI imports the experiment modules (inside ``main()``), so it is
*not* re-exported here — ``repro.experiments.common`` depends on this
package for :class:`Job` and importing it eagerly would be circular.
"""

from repro.campaign.job import (
    CACHE_SCHEMA,
    Job,
    execute_job,
    freeze,
    job_params,
    make_job,
    resolve_executor,
    thaw,
)
from repro.campaign.store import (
    CacheCorruption,
    ResultStore,
    StoreIndex,
    SweepPlan,
    default_store_root,
)
from repro.campaign.queue import SpoolQueue, worker_loop
from repro.campaign.executor import (
    CampaignOutcome,
    CampaignStats,
    quarantine_report,
    run_jobs,
    serial_results,
)
from repro.campaign.faults import Fault, FaultPlan
from repro.campaign.manifest import RunManifest, campaign_digest
from repro.campaign.policy import (
    AttemptRecord,
    JobFailure,
    RetryPolicy,
)

__all__ = [
    "CACHE_SCHEMA",
    "AttemptRecord",
    "CacheCorruption",
    "CampaignOutcome",
    "CampaignStats",
    "Fault",
    "FaultPlan",
    "Job",
    "JobFailure",
    "ResultStore",
    "RetryPolicy",
    "RunManifest",
    "SpoolQueue",
    "StoreIndex",
    "SweepPlan",
    "campaign_digest",
    "default_store_root",
    "execute_job",
    "worker_loop",
    "freeze",
    "job_params",
    "make_job",
    "quarantine_report",
    "resolve_executor",
    "run_jobs",
    "serial_results",
    "thaw",
]
