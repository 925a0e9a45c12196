"""``python -m repro scenario`` — run and sweep declarative scenarios.

Examples::

    python -m repro scenario list
    python -m repro scenario run churn
    python -m repro scenario run mobility --set dwell_s=0.5 --seed 2
    python -m repro scenario sweep bursty --axis scheduler=fifo,tbr \
        --axis udp_mbps=4,8 --jobs 4

``run`` compiles one family in-process; ``sweep`` fans the cartesian
product of the ``--axis`` values out through the campaign executor —
worker processes plus the on-disk result cache — so a re-run only
simulates the points whose spec content changed.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional

from repro.scenario.registry import FAMILIES, build_spec, sweep_specs
from repro.scenario.runner import render_result, run_spec, scenario_job
from repro.scenario.spec import check_finite


def _coerce(text: str) -> Any:
    """CLI value -> int/float/bool/str (most specific wins)."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_assignments(pairs: List[str], flag: str) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"{flag} expects key=value, got {pair!r}")
        if key in out:
            raise ValueError(
                f"{flag} given twice for {key!r} — the first value "
                "would be silently dropped"
            )
        out[key] = value
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro scenario",
        description=(
            "Compile declarative scenario specs (churn, mobility, "
            "bursty traffic, TCP/UDP mixes) and run them — one-off or "
            "as cached parallel sweeps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list scenario families and their knobs")

    run_p = sub.add_parser("run", help="run one family in-process")
    run_p.add_argument("family", metavar="FAMILY")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument(
        "--seconds", type=float, default=None,
        help="measurement window override (family default if omitted)",
    )
    run_p.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        dest="assignments", help="override any family knob (repeatable)",
    )
    run_p.add_argument(
        "--sanitize", action="store_true",
        help="run under the runtime invariant sanitizer (same event "
        "sequence; violations abort with component and sim-time)",
    )
    run_p.add_argument(
        "--fast-forward", action="store_true",
        help="enable the steady-state fast-forward engine (skips "
        "converged stretches analytically; renders match within "
        "printed precision)",
    )

    sweep_p = sub.add_parser(
        "sweep", help="fan a parameter sweep out as cached campaign jobs"
    )
    sweep_p.add_argument("family", metavar="FAMILY")
    sweep_p.add_argument(
        "--axis", action="append", default=[], metavar="KEY=V1,V2,...",
        dest="axes", help="sweep axis (repeatable; cartesian product)",
    )
    sweep_p.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        dest="assignments", help="fixed override applied to every point",
    )
    # How to execute — workers, store, retries, queue — is the campaign
    # CLI's flag set and meaning, shared verbatim (same default store
    # too: scenario jobs are content-addressed, so warm re-runs coalesce
    # across both CLIs).  Only a command line naming ``sweep`` loads it.
    if "sweep" in (sys.argv[1:] if argv is None else argv):
        from repro.campaign import cli as campaign_cli

        campaign_cli.add_execution_flags(sweep_p)
    sweep_p.add_argument(
        "--sanitize", action="store_true",
        help="run every point under the runtime invariant sanitizer "
        "(exported to workers via REPRO_SANITIZE)",
    )
    sweep_p.add_argument(
        "--fast-forward", action="store_true",
        help="run every point through the steady-state fast-forward "
        "engine (exported to workers via REPRO_FASTFWD)",
    )

    args = parser.parse_args(argv)

    if args.command == "list":
        for name, family in FAMILIES.items():
            print(f"  {name:9} {family.summary}")
            knobs = ", ".join(
                f"{k}={v}" for k, v in family.defaults.items()
            )
            print(f"            knobs: {knobs}")
        return 0

    if args.family not in FAMILIES:
        valid = ", ".join(FAMILIES)
        print(
            f"unknown scenario family {args.family!r}; valid: {valid}",
            file=sys.stderr,
        )
        return 2

    try:
        overrides = {
            key: _coerce(value)
            for key, value in _parse_assignments(
                args.assignments, "--set"
            ).items()
        }
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.command == "run":
        # The dedicated flags and --set are two spellings of the same
        # override; refuse both, same as a repeated --set key.
        for flag, value in (("seed", args.seed), ("seconds", args.seconds)):
            if value is not None:
                if flag in overrides:
                    print(
                        f"--{flag} and --set {flag}=... given together — "
                        "pick one",
                        file=sys.stderr,
                    )
                    return 2
                overrides[flag] = value
        try:
            # build_spec raises on unknown knobs, the family builder on
            # mistyped values (e.g. a float joiner count), validate()
            # on inconsistent specs — all are user input errors here.
            check_finite(overrides)  # before a builder loops to inf
            spec = build_spec(args.family, **overrides)
            spec.validate()
        except (ValueError, TypeError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
        sanitize = True if args.sanitize else None
        fast_forward = True if args.fast_forward else None
        print(
            render_result(
                run_spec(spec, sanitize=sanitize, fast_forward=fast_forward)
            )
        )
        return 0

    # sweep
    try:
        campaign_cli.check_execution_flags(args)
        axes = {
            key: [_coerce(v) for v in value.split(",") if v]
            for key, value in _parse_assignments(args.axes, "--axis").items()
        }
        clash = sorted(set(axes) & set(overrides))
        if clash:
            print(
                f"--axis and --set given for the same knob(s): "
                f"{', '.join(clash)} — an axis value would silently "
                "replace the fixed override",
                file=sys.stderr,
            )
            return 2
        check_finite(overrides)
        check_finite(axes)
        specs = sweep_specs(args.family, axes, **overrides)
        for spec in specs:
            spec.validate()  # fail fast, before any worker fan-out
    except (ValueError, TypeError, campaign_cli.UsageError) as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.sanitize:
        # Workers inherit the supervisor's environment, so the env
        # switch is how --sanitize crosses the process boundary.
        import os

        from repro.sim.sanitizer import SANITIZE_ENV

        os.environ[SANITIZE_ENV] = "1"
    if args.fast_forward:
        import os

        from repro.sim.steady import FASTFWD_ENV

        os.environ[FASTFWD_ENV] = "1"

    from repro.campaign.executor import run_jobs

    jobs = [scenario_job(spec, key=spec.name) for spec in specs]
    try:
        kwargs, jobs = campaign_cli.execution_kwargs(args, jobs)
    except campaign_cli.UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if not jobs:
        return 0
    outcome = run_jobs(jobs, **kwargs)
    by_key = outcome.experiment_results("scenario")
    if args.missing_only:
        # Fill-the-store mode: the renders belong to a later warm run.
        specs = []
    for spec in specs:
        if spec.name not in by_key:
            print(f"[{spec.name}: not rendered — job quarantined]")
            print()
            continue
        print(render_result(by_key[spec.name]))
        print()
    return campaign_cli.report_outcome(outcome, args.partial)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
