"""Campaign benchmark: serial vs parallel vs warm-cache wall clock.

The scaling matrix (``repro.perf.scaling``) measures the kernel; this
module measures the *campaign* layer on the quantity an experiment
author actually feels: wall-clock to reproduce the paper's full figure
and table suite.  Three legs, each against a fresh temporary cache so
the comparison is honest:

1. **serial** — every job in-process, one after another (the
   pre-campaign workflow);
2. **parallel** — the same jobs through the multiprocessing executor;
3. **warm** — the parallel campaign re-run against its own cache, which
   must execute zero jobs.

Simulated durations are scaled down per experiment (``BENCH_SECONDS``)
so the suite stays affordable; serial-vs-parallel *ratios*, not
absolute walls, are the tracked quantity.  Results land in
``BENCH_perf.json`` under the ``campaign`` key via
``python -m repro perf --campaign``.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.campaign.store import ResultStore
from repro.campaign.executor import CampaignOutcome, run_jobs
from repro.campaign.job import Job
from repro.campaign.registry import FIGURE_SUITE, campaign_registry

#: Per-experiment simulated durations for the benchmark suite (seconds
#: in each experiment's own duration unit — fig5 simulates hours of
#: trace, table1 runs to task completion under this cap).
BENCH_SECONDS: Dict[str, float] = {
    "fig1": 6.0,
    "fig2": 2.0,
    "fig3": 2.0,
    "fig4": 2.0,
    "fig5": 6.0 * 3600.0,
    "fig8": 1.0,
    "fig9": 1.0,
    "table1": 45.0,
    "table2": 2.0,
    "table3": 2.0,
    "table4": 2.0,
}


def default_workers() -> int:
    """Parallel-leg worker count: one per CPU.

    On a single-core host this is 1, and :func:`run_campaign_bench`
    *skips* the parallel leg rather than timing two workers fighting
    over one core — that used to produce a headline "speedup" below 1
    (e.g. 0.809) that said nothing about the campaign layer.
    """
    return os.cpu_count() or 1


@dataclass
class CampaignBenchSample:
    """Measured walls for the legs of the campaign benchmark.

    ``parallel_wall_s`` is ``None`` when the parallel leg was skipped
    (``degraded_reason`` says why — currently only single-core hosts,
    where serial-vs-parallel walls measure multiprocessing overhead,
    not campaign speedup).  The warm leg always runs: cache hits are
    meaningful regardless of core count.
    """

    experiments: List[str]
    jobs: int
    unique_jobs: int
    workers: int
    seed: int
    serial_wall_s: float
    parallel_wall_s: Optional[float]
    warm_wall_s: float
    warm_executed: int  #: must be 0 — every warm job is a cache hit
    degraded_reason: Optional[str] = None
    #: the *executor's* ``CampaignStats.degraded_reason`` from the
    #: parallel leg: non-None means the supervised pool fell back to
    #: serial mid-leg (repeated worker deaths), so the "parallel" wall
    #: is really a mostly-serial wall and its speedup is not comparable.
    executor_degraded_reason: Optional[str] = None
    #: attempts retried across the parallel leg (0 on a healthy host);
    #: a nonzero count flags walls inflated by retry backoff.
    parallel_retries: int = 0

    @property
    def parallel_speedup(self) -> Optional[float]:
        """Serial wall over parallel wall (>= 1 on multi-core hosts);
        ``None`` when the parallel leg was skipped."""
        if self.parallel_wall_s is None:
            return None
        if self.parallel_wall_s <= 0:
            return 0.0
        return self.serial_wall_s / self.parallel_wall_s

    @property
    def warm_fraction(self) -> float:
        """Warm-cache wall as a fraction of the cold run it re-hits
        (the parallel leg, or the serial leg when parallel was
        skipped)."""
        cold = (
            self.parallel_wall_s
            if self.parallel_wall_s is not None
            else self.serial_wall_s
        )
        if cold <= 0:
            return 0.0
        return self.warm_wall_s / cold


def build_suite_jobs(
    experiments: Optional[Sequence[str]] = None,
    *,
    seed: int = 1,
    seconds: Optional[Dict[str, float]] = None,
) -> List[Job]:
    """The benchmark's job list: every selected experiment at its
    scaled-down duration."""
    registry = campaign_registry()
    names = list(experiments) if experiments else list(FIGURE_SUITE)
    durations = dict(BENCH_SECONDS)
    if seconds:
        durations.update(seconds)
    jobs: List[Job] = []
    for name in names:
        jobs.extend(
            registry[name].build_jobs(seed=seed, seconds=durations.get(name))
        )
    return jobs


def run_campaign_bench(
    experiments: Optional[Sequence[str]] = None,
    *,
    workers: Optional[int] = None,
    seed: int = 1,
    seconds: Optional[Dict[str, float]] = None,
    progress: Optional[Callable[[str, float], None]] = None,
) -> CampaignBenchSample:
    """Time the legs; ``progress(leg, wall_s)`` after each.

    With one usable worker (``workers`` resolving to <= 1) the parallel
    leg is skipped and annotated instead of timed: on a single core the
    "parallel" wall is the serial wall plus process-pool overhead, and
    the resulting sub-1 "speedup" headline is noise.  The warm leg then
    re-runs against the serial cache (still a pure cache-hit check).
    """
    workers = default_workers() if workers is None else workers
    names = list(experiments) if experiments else list(FIGURE_SUITE)
    jobs = build_suite_jobs(names, seed=seed, seconds=seconds)
    degraded_reason = None
    if workers <= 1:
        degraded_reason = (
            f"parallel leg skipped: only {workers} worker available "
            f"(cpu_count={os.cpu_count()}); a parallel wall on this "
            "host would measure multiprocessing overhead, not speedup"
        )

    def timed(leg_workers: int, cache: ResultStore) -> Tuple[float, CampaignOutcome]:
        t0 = time.perf_counter()
        outcome = run_jobs(jobs, workers=leg_workers, cache=cache)
        return time.perf_counter() - t0, outcome

    with tempfile.TemporaryDirectory(prefix="repro-campaign-bench-") as tmp:
        serial_cache = ResultStore(f"{tmp}/serial")
        serial_wall, serial_outcome = timed(1, serial_cache)
        if progress is not None:
            progress("serial", serial_wall)
        executor_degraded = None
        parallel_retries = 0
        if degraded_reason is None:
            warm_cache = ResultStore(f"{tmp}/parallel")
            parallel_wall, parallel_outcome = timed(workers, warm_cache)
            executor_degraded = parallel_outcome.stats.degraded_reason
            parallel_retries = parallel_outcome.stats.retried
            if progress is not None:
                progress("parallel", parallel_wall)
        else:
            parallel_wall = None
            warm_cache = serial_cache
        warm_wall, warm_outcome = timed(max(1, workers), warm_cache)
        if progress is not None:
            progress("warm", warm_wall)

    return CampaignBenchSample(
        experiments=names,
        jobs=len(jobs),
        unique_jobs=serial_outcome.stats.unique,
        workers=workers,
        seed=seed,
        serial_wall_s=serial_wall,
        parallel_wall_s=parallel_wall,
        warm_wall_s=warm_wall,
        warm_executed=warm_outcome.stats.executed,
        degraded_reason=degraded_reason,
        executor_degraded_reason=executor_degraded,
        parallel_retries=parallel_retries,
    )


def campaign_row(sample: CampaignBenchSample) -> Dict:
    """Flatten the sample for ``BENCH_perf.json``'s ``campaign`` key.

    A skipped parallel leg serializes as ``parallel_wall_s: null`` /
    ``parallel_speedup: null`` with ``degraded_reason`` recording why,
    so a dashboard never mistakes a single-core artifact for a
    regression.
    """
    return {
        "experiments": list(sample.experiments),
        "jobs": sample.jobs,
        "unique_jobs": sample.unique_jobs,
        "workers": sample.workers,
        "seed": sample.seed,
        "serial_wall_s": round(sample.serial_wall_s, 3),
        "parallel_wall_s": (
            None
            if sample.parallel_wall_s is None
            else round(sample.parallel_wall_s, 3)
        ),
        "warm_wall_s": round(sample.warm_wall_s, 3),
        "parallel_speedup": (
            None
            if sample.parallel_speedup is None
            else round(sample.parallel_speedup, 3)
        ),
        "warm_fraction": round(sample.warm_fraction, 4),
        "warm_executed": sample.warm_executed,
        "degraded_reason": sample.degraded_reason,
        "executor_degraded_reason": sample.executor_degraded_reason,
        "parallel_retries": sample.parallel_retries,
        "cpu_count": os.cpu_count(),
    }


def render_campaign(sample: CampaignBenchSample) -> str:
    """Human-readable summary for the CLI."""
    if sample.parallel_wall_s is None:
        parallel_line = f"  parallel      skipped ({sample.degraded_reason})\n"
    else:
        caveat = ""
        if sample.executor_degraded_reason is not None:
            caveat = f"  [degraded: {sample.executor_degraded_reason}]"
        elif sample.parallel_retries:
            caveat = f"  [{sample.parallel_retries} retried]"
        parallel_line = (
            f"  parallel  {sample.parallel_wall_s:8.2f}s  "
            f"({sample.workers} workers, {sample.parallel_speedup:.2f}x)"
            f"{caveat}\n"
        )
    return (
        "Campaign benchmark "
        f"({len(sample.experiments)} experiments, {sample.jobs} jobs, "
        f"{sample.unique_jobs} unique):\n"
        f"  serial    {sample.serial_wall_s:8.2f}s  (1 worker)\n"
        + parallel_line
        + f"  warm      {sample.warm_wall_s:8.2f}s  "
        f"({sample.warm_fraction * 100:.1f}% of cold, "
        f"{sample.warm_executed} executed)"
    )
