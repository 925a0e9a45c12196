"""``python -m repro perf`` — run the simulator scaling benchmark.

Examples::

    python -m repro perf                         # full matrix -> BENCH_perf.json
    python -m repro perf --stations 4,16         # subset of the matrix
    python -m repro perf --schedulers tbr --profiles multi --seconds 2
    python -m repro perf --no-write              # print the table only
    python -m repro perf --events                # + per-category breakdown
    python -m repro perf --output /tmp/b.json    # don't clobber BENCH_perf.json
    python -m repro perf --campaign              # + serial-vs-parallel campaign
    python -m repro perf --long-horizon          # + fast-forward wall-vs-horizon
    python -m repro perf --campus                # + campus cells-vs-wall scaling
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional

from repro.perf.report import (
    DEFAULT_PATH,
    HEADLINE_KEY,
    render_events_table,
    render_table,
    write_report,
)
from repro.perf.scaling import (
    DEFAULT_PROFILES,
    DEFAULT_SCHEDULERS,
    DEFAULT_STATION_COUNTS,
    matrix,
    run_matrix,
)


def _csv(text: str) -> List[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro perf",
        description=(
            "Measure simulator kernel throughput (events/sec) on "
            "saturated cells and persist the trajectory to "
            f"{DEFAULT_PATH}."
        ),
    )
    parser.add_argument(
        "--stations",
        default=",".join(str(n) for n in DEFAULT_STATION_COUNTS),
        help="comma-separated station counts (default: %(default)s)",
    )
    parser.add_argument(
        "--schedulers",
        default=",".join(DEFAULT_SCHEDULERS),
        help="comma-separated AP schedulers (default: %(default)s)",
    )
    parser.add_argument(
        "--profiles",
        default=",".join(DEFAULT_PROFILES),
        help="comma-separated rate profiles: same,multi (default: %(default)s)",
    )
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="simulated seconds per scenario (default: per-N schedule)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--output",
        default=DEFAULT_PATH,
        metavar="PATH",
        help=(
            "where to write the JSON report instead of silently "
            f"clobbering {DEFAULT_PATH}"
        ),
    )
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="print the table without writing the JSON report",
    )
    parser.add_argument(
        "--note",
        default="",
        help="free-form note recorded in the JSON report",
    )
    parser.add_argument(
        "--events",
        action="store_true",
        help=(
            "also print the per-category kernel event breakdown "
            "(traffic / mac / phy / timer / other) for each scenario"
        ),
    )
    parser.add_argument(
        "--campaign",
        action="store_true",
        help=(
            "also run the campaign benchmark (full figure/table suite, "
            "serial vs parallel vs warm cache) and record it in the report"
        ),
    )
    parser.add_argument(
        "--campaign-jobs",
        type=int,
        default=None,
        metavar="N",
        help="workers for the campaign benchmark's parallel leg "
        "(default: one per CPU; on a single-core host the parallel "
        "leg is skipped and annotated in the JSON)",
    )
    parser.add_argument(
        "--campus",
        action="store_true",
        help=(
            "also run the campus scaling benchmark (campus family swept "
            "over cell counts, 1/6/11 reuse plan) and record the "
            "cells-vs-wall curve in the report"
        ),
    )
    parser.add_argument(
        "--long-horizon",
        action="store_true",
        help=(
            "also run the long-horizon fast-forward benchmark "
            "(steady-long swept over sim seconds, engine on vs off) "
            "and record the wall-vs-horizon curve in the report"
        ),
    )
    parser.add_argument(
        "--horizons",
        default=None,
        metavar="S1,S2,...",
        help="simulated-seconds sweep for --long-horizon "
        "(default: 1,10,100)",
    )
    args = parser.parse_args(argv)

    if not args.no_write:
        parent = Path(args.output).resolve().parent
        if not parent.is_dir():
            parser.error(
                f"--output parent directory does not exist: {parent}"
            )
    if args.campaign_jobs is not None and args.campaign_jobs < 1:
        parser.error("--campaign-jobs must be >= 1")
    if args.horizons is not None and not args.long_horizon:
        parser.error("--horizons only makes sense with --long-horizon")
    horizons = None
    if args.long_horizon:
        from repro.perf.longhorizon import DEFAULT_HORIZONS

        horizons = list(DEFAULT_HORIZONS)
        if args.horizons is not None:
            try:
                horizons = [float(h) for h in _csv(args.horizons)]
            except ValueError:
                parser.error(f"invalid --horizons {args.horizons!r}")
            if not horizons or any(h <= 0 for h in horizons):
                parser.error("--horizons values must be positive")

    try:
        station_counts = [int(n) for n in _csv(args.stations)]
    except ValueError:
        parser.error(f"invalid --stations {args.stations!r}")
    if not station_counts:
        parser.error("--stations must name at least one station count")
    if any(n < 1 for n in station_counts):
        parser.error("--stations values must be >= 1")
    schedulers = _csv(args.schedulers)
    profiles = _csv(args.profiles)
    if not schedulers:
        parser.error("--schedulers must name at least one scheduler")
    if not profiles:
        parser.error("--profiles must name at least one profile")
    known_schedulers = ("fifo", "rr", "drr", "tbr")
    for scheduler in schedulers:
        if scheduler not in known_schedulers:
            parser.error(
                f"unknown scheduler {scheduler!r} "
                f"(choose from {', '.join(known_schedulers)})"
            )
    for profile in profiles:
        if profile not in ("same", "multi"):
            parser.error(f"unknown profile {profile!r} (same, multi)")
    seconds = None
    if args.seconds is not None:
        if args.seconds <= 0:
            parser.error("--seconds must be positive")
        seconds = {n: args.seconds for n in station_counts}

    scenarios = matrix(
        station_counts,
        schedulers,
        profiles,
        seconds=seconds,
        seed=args.seed,
    )

    def progress(sample) -> None:
        sc = sample.scenario
        print(
            f"  {sc.key:<18} {sample.events:>8} events in "
            f"{sample.wall_s:6.3f}s -> {sample.events_per_sec:>10,.0f} ev/s"
        )

    print(f"Running {len(scenarios)} scenarios (seed {args.seed}) ...")
    samples = run_matrix(scenarios, progress=progress)
    print()
    print(render_table(samples))
    if args.events:
        print()
        print(render_events_table(samples))

    headline = next(
        (s for s in samples if s.scenario.key == HEADLINE_KEY), None
    )
    if headline is not None:
        print(
            f"\nheadline {HEADLINE_KEY}: "
            f"{headline.events_per_sec:,.0f} events/sec"
        )

    campaign = None
    if args.campaign:
        from repro.perf.campaign_bench import (
            campaign_row,
            render_campaign,
            run_campaign_bench,
        )

        print("\nRunning campaign benchmark (serial / parallel / warm) ...")
        bench = run_campaign_bench(
            workers=args.campaign_jobs,
            seed=args.seed,
            progress=lambda leg, wall: print(f"  {leg:<8} {wall:8.2f}s"),
        )
        print(render_campaign(bench))
        campaign = campaign_row(bench)

    fastforward = None
    if args.long_horizon:
        from repro.perf.longhorizon import (
            longhorizon_row,
            render_long_horizon,
            run_long_horizon,
        )

        print("\nRunning long-horizon fast-forward benchmark ...")
        lh_samples = run_long_horizon(
            horizons,
            seed=args.seed,
            progress=lambda leg, sim_s, wall: print(
                f"  {leg:<8} {sim_s:6g} sim s  {wall:8.3f}s wall"
            ),
        )
        print(render_long_horizon(lh_samples))
        fastforward = longhorizon_row(lh_samples, seed=args.seed)

    campus = None
    if args.campus:
        from repro.perf.campus_scaling import (
            campus_row,
            render_campus_scaling,
            run_campus_scaling,
        )

        from repro.campaign.store import ResultStore, default_store_root

        print("\nRunning campus scaling benchmark ...")
        campus_stats: dict = {}
        campus_samples = run_campus_scaling(
            seed=args.seed,
            progress=lambda n, wall: print(
                f"  {n:>3} cells  {wall:8.3f}s wall"
            ),
            store=ResultStore(default_store_root()),
            stats_out=campus_stats,
        )
        print(
            f"  store: {campus_stats.get('executed', 0)} point(s) "
            f"executed, {campus_stats.get('cached', 0)} replayed"
        )
        print(render_campus_scaling(campus_samples))
        campus = campus_row(campus_samples, seed=args.seed)

    if not args.no_write:
        path = write_report(
            samples,
            args.output,
            note=args.note,
            campaign=campaign,
            fastforward=fastforward,
            campus=campus,
        )
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
