"""Command-line entry point: regenerate any paper experiment.

Usage::

    python -m repro list
    python -m repro fig9 [--seed 2] [--seconds 10]
    python -m repro all  [--seed 1]
    python -m repro campaign [fig8 fig9 ...] [--jobs 8] [--force]
    python -m repro campaign --resume [--timeout 600] [--retries 3]
    python -m repro campaign verify-cache [--purge]
    python -m repro scenario run churn [--set period_s=1.0]
    python -m repro serve [--port 8037] [--cache-dir DIR] [--jobs N]

Each experiment prints its paper-vs-measured rendering.  ``campaign``
runs any mix of experiments across *supervised* worker processes —
crashed or hung jobs are retried with backoff, poison jobs are
quarantined without sinking the rest, and interrupted runs resume from
an on-disk checksummed result cache (see ``repro.campaign``);
``scenario`` runs and sweeps the declarative workload families (see
``repro.scenario``); ``serve`` answers the same scenarios over HTTP
from the result store (see ``repro.serve``).  Performance is measured
by ``benchmarks/suite`` (see its README).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.campaign.executor import serial_results
from repro.experiments import EXPERIMENTS, ablations


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Subcommands with their own flag sets: hand over before the
    # experiment parser rejects them.
    if argv and argv[0] == "campaign":
        from repro.campaign.cli import main as campaign_main

        return campaign_main(argv[1:])
    if argv and argv[0] == "scenario":
        from repro.scenario.cli import main as scenario_main

        return scenario_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.serve import main as serve_main

        return serve_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduce the tables and figures of Tan & Guttag, "
            "'Time-based Fairness Improves Performance in Multi-rate "
            "WLANs' (USENIX '04)."
        ),
    )
    parser.add_argument(
        "experiment",
        help=(
            "experiment name (see 'list'), 'all', 'list', 'campaign', "
            "'scenario', or 'serve'"
        ),
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="simulated duration per run (experiment default if omitted)",
    )
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name, experiment in EXPERIMENTS.items():
            print(f"  {name:8} {experiment.summary}")
        print("  campaign Parallel cached experiment runner "
              "(python -m repro campaign --help)")
        print("  scenario Declarative workload families: run/list/sweep "
              "(python -m repro scenario --help)")
        print("  serve    Scenario reproduction over HTTP, backed by the "
              "result store (python -m repro serve --help)")
        return 0

    if args.experiment == "all":
        names = [n for n in EXPERIMENTS if n not in ablations.ABLATIONS]
    elif args.experiment in EXPERIMENTS:
        names = [args.experiment]
    else:
        valid = ", ".join(EXPERIMENTS)
        print(f"unknown experiment {args.experiment!r}; valid: {valid}, all, list",
              file=sys.stderr)
        return 2

    knobs = {"seed": args.seed}
    if args.seconds is not None:
        knobs["seconds"] = args.seconds
    for name in names:
        experiment = EXPERIMENTS[name]
        try:
            jobs = experiment.jobs(**knobs)
        except ValueError as exc:
            # The job factory rejected the duration (or seed).
            print(f"{name}: {exc}", file=sys.stderr)
            return 2
        print(experiment.render(experiment.reduce(serial_results(jobs))))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
