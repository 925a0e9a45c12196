"""``python -m repro campaign`` — run experiments as a parallel campaign.

Examples::

    python -m repro campaign                      # all figures + tables
    python -m repro campaign fig8 fig9 --jobs 4   # a subset, 4 workers
    python -m repro campaign --jobs 1             # serial, in-process
    python -m repro campaign --force              # ignore cached results
    python -m repro campaign --timeout 600        # kill hung jobs
    python -m repro campaign --resume             # finish an interrupted run
    python -m repro campaign --missing-only       # plan, then run only misses
    python -m repro campaign verify-cache         # integrity-check the store
    python -m repro campaign query --family fig9  # index lookups, no unpickle
    python -m repro campaign worker --spool-dir D # drain a shared spool
    python -m repro campaign --list               # selectable names

Results are cached on disk keyed by each job's config digest, so a
re-run only simulates what changed; ``--force`` recomputes everything
(and refreshes the cache).  Output is printed per experiment in the
order requested, independent of which worker finished first.

Failure semantics: a job that exhausts its ``--retries`` attempts is
*quarantined* — the campaign completes the rest, prints a quarantine
report (digest, attempts, worker pids, traceback), skips the affected
experiments' renders, and exits nonzero unless ``--partial``.  A ^C
flushes finished results to the cache and the run's manifest, and
``--resume`` then executes only the remainder (prior quarantined jobs
are reported without burning their retry budget again).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.campaign.executor import (
    CampaignOutcome,
    quarantine_report,
    run_jobs,
)
from repro.campaign.faults import FaultPlan, FaultPlanError
from repro.campaign.job import Job
from repro.campaign.manifest import RunManifest, campaign_digest
from repro.campaign.policy import RetryPolicy
from repro.campaign.store import (
    DEFAULT_CACHE_DIRNAME,
    ResultStore,
    unlink_quietly,
)

#: argparse help text for every ``--cache-dir`` flag in the repo.
CACHE_DIR_HELP = (
    "result store directory (default: $REPRO_CACHE_DIR, else "
    f"<repo root>/{DEFAULT_CACHE_DIRNAME})"
)

#: Exit code for an interrupted (^C) campaign, matching shell SIGINT.
EXIT_INTERRUPTED = 130


def manifest_path(cache_dir, digest: str) -> Path:
    """Where a campaign's resume checkpoint lives."""
    return Path(cache_dir) / "runs" / f"{digest[:16]}.json"


# ----------------------------------------------------------------------
# "how to execute": the flags ``repro campaign`` and ``repro scenario
# sweep`` share, their meaning, and the exit code of the outcome
# ----------------------------------------------------------------------
class UsageError(Exception):
    """Bad flags; the message is for stderr and the exit code is 2."""


def add_execution_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes (default: one per CPU; 1 = inline, "
        "in-process)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR", help=CACHE_DIR_HELP
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="neither read nor write the result store (also disables "
        "the resume manifest)",
    )
    parser.add_argument(
        "--force", action="store_true",
        help="ignore stored results (they are refreshed afterwards)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-job wall-clock budget in seconds; a hung job is "
        "killed and retried (workers > 1 only)",
    )
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="max attempts per job before quarantine (default: "
        f"{RetryPolicy.max_attempts})",
    )
    parser.add_argument(
        "--partial", action="store_true",
        help="exit 0 even when jobs were quarantined (whatever "
        "completed still renders)",
    )
    parser.add_argument(
        "--missing-only", action="store_true",
        help="plan against the store first, report cached/missing "
        "counts, execute only the missing jobs and skip the renders "
        "(fill-the-store mode for incremental sweeps)",
    )
    parser.add_argument(
        "--queue", choices=("pool", "spool"), default="pool",
        help="backend for --jobs > 1: the in-process supervised pool "
        "(default) or a filesystem spool shared with independent "
        "'repro campaign worker' processes",
    )
    parser.add_argument(
        "--spool-dir", default=None, metavar="DIR",
        help="spool directory for --queue spool",
    )
    parser.add_argument(
        "--spool-workers", type=int, default=None, metavar="N",
        help="local worker processes the spool coordinator spawns "
        "(default: --jobs; 0 = rely entirely on external workers)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-job progress"
    )


def check_execution_flags(args: argparse.Namespace) -> None:
    """Range and combination checks that need nothing but the flags."""
    if args.jobs is not None and args.jobs < 1:
        raise UsageError("--jobs must be >= 1")
    if args.timeout is not None and args.timeout <= 0:
        raise UsageError("--timeout must be positive")
    if args.retries is not None and args.retries < 1:
        raise UsageError("--retries must be >= 1")
    if args.queue == "spool" and not args.spool_dir:
        raise UsageError("--queue spool requires --spool-dir")
    if args.spool_workers is not None and args.spool_workers < 0:
        raise UsageError("--spool-workers must be >= 0")


def _print_progress(event: str, job: Job, done: int, total: int) -> None:
    print(f"  [{done}/{total}] {job.label} ({event})")


def execution_kwargs(
    args: argparse.Namespace, jobs: List[Job]
) -> Tuple[Dict[str, Any], List[Job]]:
    """Checked flags -> ``(run_jobs keyword arguments, jobs to run)``.

    Opens the store, builds the retry policy and the spool backend,
    validates the ``REPRO_CAMPAIGN_FAULTS`` plan, and under
    ``--missing-only`` prints the plan and narrows ``jobs`` to the
    missing ones (possibly none).  Raises :class:`UsageError`.
    """
    cache = None if args.no_cache else ResultStore(args.cache_dir)
    if args.missing_only:
        if cache is None:
            raise UsageError(
                "--missing-only needs the result store (drop --no-cache)"
            )
        plan = cache.plan(jobs)
        print(plan.summary())
        if not plan.missing:
            print("nothing to execute — the store already has every job")
        jobs = plan.missing
    queue = None
    if args.queue == "spool":
        from repro.campaign.queue import SpoolQueue

        if cache is None:
            raise UsageError(
                "--queue spool needs the result store (drop --no-cache)"
            )
        workers = args.spool_workers
        if workers is None:
            workers = args.jobs if args.jobs is not None else 1
        queue = SpoolQueue(args.spool_dir, cache, workers=workers)
    try:
        # A malformed REPRO_CAMPAIGN_FAULTS plan is a usage error — name
        # the problem instead of unwinding with a traceback.
        fault_plan = FaultPlan.from_env()
    except FaultPlanError as exc:
        raise UsageError(str(exc)) from exc
    kwargs = dict(
        workers=args.jobs,
        cache=cache,
        force=args.force,
        progress=None if args.quiet else _print_progress,
        retry=(
            None
            if args.retries is None
            else RetryPolicy(max_attempts=args.retries)
        ),
        timeout_s=args.timeout,
        fault_plan=fault_plan,
        queue=queue,
    )
    return kwargs, jobs


def report_outcome(outcome: CampaignOutcome, partial: bool) -> int:
    """Print the quarantine report and the stats line; the exit code."""
    report = quarantine_report(outcome)
    if report:
        print(report)
        print()
    print(outcome.stats.summary())
    if outcome.stats.interrupted:
        print(
            "interrupted — finished results are in the store; a rerun "
            "executes only the remainder",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    return 1 if outcome.failures and not partial else 0


def verify_cache_main(
    cache_dir: Optional[str], purge: bool, reindex: bool = False
) -> int:
    """``repro campaign verify-cache``: payload and index integrity.

    Every entry's checksum is verified (exit 1 on damage, ``--purge``
    to drop), and the index is cross-checked against the entries on
    disk: dangling rows and unindexed entries are reported, and
    ``--reindex`` rebuilds the index to exactly match the surviving
    entries (always run after a purge, so the purge never leaves
    dangling rows behind).
    """
    store = ResultStore(cache_dir)
    if store.swept_tmp:
        print(f"swept {store.swept_tmp} stale temp file(s)")
    total, bad = store.verify_summary()
    print(f"{total} entrie(s) under {store.root}: {total - len(bad)} ok")
    for digest, status, detail in bad:
        print(f"  {status:10} {digest[:16]}…  {detail}")
    if bad and purge:
        for digest, _, _ in bad:
            unlink_quietly(store.path_for(digest))
        print(f"purged {len(bad)} bad entrie(s)")
    if store.index.corrupt_lines:
        print(
            f"index: skipped {store.index.corrupt_lines} corrupt "
            "line(s) (torn append from a crashed writer)"
        )
    dangling, unindexed = store.verify_index()
    if dangling or unindexed:
        print(
            f"index: {len(dangling)} dangling row(s), "
            f"{len(unindexed)} unindexed entrie(s)"
        )
    else:
        print("index: consistent with the entries on disk")
    if reindex or (purge and bad):
        entries, added, dropped = store.reindex()
        print(
            f"reindexed: {entries} entrie(s), {added} added, "
            f"{dropped} dropped"
        )
    elif dangling or unindexed or store.index.corrupt_lines:
        print("  (run verify-cache --reindex to rebuild the index)")
    return 1 if bad else 0


def query_main(argv: List[str]) -> int:
    """``repro campaign query``: index lookups, no payloads unpickled."""
    parser = argparse.ArgumentParser(
        prog="python -m repro campaign query",
        description=(
            "Answer (experiment, family, seed, digest-prefix) lookups "
            "from the result store's index without unpickling any "
            "payloads."
        ),
    )
    parser.add_argument("--cache-dir", default=None, help=CACHE_DIR_HELP)
    parser.add_argument("--experiment", default=None)
    parser.add_argument("--family", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--digest", default=None, metavar="PREFIX",
        help="match digests by prefix",
    )
    parser.add_argument(
        "--stat", action="store_true",
        help="include entry size and indexing state per row",
    )
    args = parser.parse_args(argv)
    store = ResultStore(args.cache_dir)
    rows = store.query(
        experiment=args.experiment,
        family=args.family,
        seed=args.seed,
        digest_prefix=args.digest,
    )
    for digest, meta in rows:
        line = (
            f"{digest[:16]}  {meta.get('experiment', '?'):12} "
            f"family={meta.get('family', '?')} seed={meta.get('seed')} "
            f"key={meta.get('key', '?')}"
        )
        if args.stat:
            stat = store.stat(digest)
            if stat is not None:
                line += f"  {stat['size_bytes']} bytes"
        print(line)
    print(f"{len(rows)} entrie(s) under {store.root}")
    return 0


def worker_main(argv: List[str]) -> int:
    """``repro campaign worker``: drain a shared filesystem spool."""
    from repro.campaign.queue import worker_loop

    parser = argparse.ArgumentParser(
        prog="python -m repro campaign worker",
        description=(
            "Claim and execute jobs from a filesystem spool until it "
            "stays drained.  Any number of workers — started by hand, "
            "by CI, or on other hosts sharing the directory — can "
            "drain one campaign; leases, retries and quarantine follow "
            "the policy the enqueuer froze into the spool."
        ),
    )
    parser.add_argument(
        "--spool-dir", required=True, metavar="DIR",
        help="spool directory shared with the enqueuing campaign",
    )
    parser.add_argument(
        "--idle-exit", type=float, default=10.0, metavar="S",
        help="exit after the spool has stayed drained (or absent) this "
        "long (default: %(default)s)",
    )
    parser.add_argument(
        "--max-jobs", type=int, default=None, metavar="N",
        help="exit after processing N claims (mainly for tests)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-claim progress"
    )
    args = parser.parse_args(argv)
    if args.idle_exit <= 0:
        parser.error("--idle-exit must be positive")
    if args.max_jobs is not None and args.max_jobs < 1:
        parser.error("--max-jobs must be >= 1")

    processed = worker_loop(
        args.spool_dir,
        idle_exit_s=args.idle_exit,
        max_jobs=args.max_jobs,
        progress=(
            None
            if args.quiet
            else lambda status: print(f"  [{status}]", flush=True)
        ),
    )
    print(f"worker pid {os.getpid()}: processed {processed} claim(s)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(argv) if argv is not None else sys.argv[1:]
    # Store/queue service commands have their own flag sets; hand over
    # before the campaign parser rejects them (same pattern as the
    # top-level CLI's subsystem routing).
    if argv and argv[0] == "query":
        return query_main(argv[1:])
    if argv and argv[0] == "worker":
        return worker_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro campaign",
        description=(
            "Fan independent simulation jobs from any mix of experiments "
            "out across supervised worker processes, with retries, "
            "quarantine, checkpointed resume and an on-disk result cache."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help=(
            "experiments to run (default: every figure and table; "
            "see --list for all names including abl-* ablations), or "
            "a special command: 'verify-cache', 'query', 'worker'"
        ),
    )
    add_execution_flags(parser)
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume this campaign from its manifest: cached digests "
        "are reused and previously quarantined jobs are reported "
        "without re-running their attempts",
    )
    parser.add_argument(
        "--purge",
        action="store_true",
        help="with verify-cache: delete the entries that fail "
        "verification",
    )
    parser.add_argument(
        "--reindex",
        action="store_true",
        help="with verify-cache: rebuild the store index from the "
        "entries on disk",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="simulated duration override per run (experiment default "
        "if omitted)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list selectable experiments"
    )
    args = parser.parse_args(argv)

    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.experiments and args.experiments[0] == "verify-cache":
        if len(args.experiments) > 1:
            parser.error("verify-cache takes no experiment names")
        return verify_cache_main(args.cache_dir, args.purge, args.reindex)
    try:
        check_execution_flags(args)
    except UsageError as exc:
        parser.error(str(exc))

    # Imported here, not at module level: the experiment table pulls in
    # every experiment module, and ``repro.scenario.cli`` imports this
    # module for the execution flags alone.
    from repro.experiments import EXPERIMENTS, FIGURE_SUITE

    if args.list:
        for name in EXPERIMENTS:
            print(f"  {name}")
        return 0

    selected = list(args.experiments) if args.experiments else list(FIGURE_SUITE)
    unknown = [name for name in selected if name not in EXPERIMENTS]
    if unknown:
        valid = ", ".join(EXPERIMENTS)
        print(
            f"unknown experiment(s) {', '.join(unknown)}; valid: {valid}",
            file=sys.stderr,
        )
        return 2

    knobs: Dict[str, Any] = {"seed": args.seed}
    if args.seconds is not None:
        knobs["seconds"] = args.seconds
    jobs: List[Job] = []
    for name in selected:
        try:
            jobs.extend(EXPERIMENTS[name].jobs(**knobs))
        except ValueError as exc:
            # The job factory rejected the duration (or seed).
            print(f"{name}: {exc}", file=sys.stderr)
            return 2

    digest = campaign_digest(job.digest for job in jobs)
    try:
        if args.resume and args.no_cache:
            raise UsageError("--resume needs the cache; drop --no-cache")
        kwargs, jobs = execution_kwargs(args, jobs)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if not jobs:
        return 0
    manifest = None
    skip_failed = None
    if kwargs["cache"] is not None:
        manifest = RunManifest.load(
            manifest_path(kwargs["cache"].root, digest), digest
        )
        if args.resume:
            skip_failed = set(manifest.failed)
        else:
            # A fresh (non-resume) run re-attempts everything that is
            # not in the store, including previously failed digests.
            manifest.failed.clear()

    outcome = run_jobs(
        jobs, manifest=manifest, skip_failed=skip_failed, **kwargs
    )

    failed_experiments = set(outcome.failed_experiments())
    incomplete = failed_experiments | (
        set(selected) if outcome.stats.interrupted else set()
    )
    if args.missing_only:
        # Fill-the-store mode: the cached majority was deliberately not
        # loaded, so experiment renders would be incomplete — report
        # execution stats only.
        selected = []
    for name in selected:
        if name in incomplete:
            why = (
                "interrupted"
                if name not in failed_experiments
                else "job(s) quarantined"
            )
            print(f"[{name}: not rendered — {why}]")
            print()
            continue
        experiment = EXPERIMENTS[name]
        result = experiment.reduce(outcome.experiment_results(name))
        print(experiment.render(result))
        print()

    return report_outcome(outcome, args.partial)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
