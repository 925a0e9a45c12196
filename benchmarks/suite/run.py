"""One benchmark for the whole stack.

    python3 benchmarks/suite/run.py --workload cell-saturated --seed 1 \\
        --seconds 10 --trace 0

runs one workload in this process, checks every output, prints every
metric by name with its unit, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.

Without ``--workload`` (or with several, or with ``--runs K``) each run
is a child process of its own, so peak RSS and set-up belong to one
workload; ``--out FILE`` keeps the full documents and ``--selfcheck``
runs two such sets of the same code and compares them with
``compare.py`` — the acceptance test the suite has to pass itself.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402  (needs the path entry above)

BENCHMARK = harness.REPO_ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = (
    "cell-saturated", "steady-horizon", "campus-grid", "campaign-sweep",
    "serve-mixed",
)
#: How often set-up is repeated in one run (once at smoke size);
#: ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Share of ``--seconds`` the traced run spends on its untraced leg.
TRACED_RUN_UNTRACED_SHARE = 0.4


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> Dict[str, Any]:
    """One run of one workload in this process; the full document."""
    started = time.perf_counter()
    harness.make_hermetic()
    clock = harness.HostClock()
    workloads, imported = clock.measure(importlib.import_module, "workloads")
    checks = harness.Checks()
    workload = workloads.WORKLOADS[name](seed, smoke)
    with harness.scratch_dir(name) as root:
        setups = []
        for i in range(1 if smoke else SETUP_REPEATS):
            if i:
                workload.teardown()
            _, sample = clock.measure(workload.setup, root / f"setup-{i}")
            setups.append(sample.ref)
        try:
            clock.cpu = workload.cpu_reader()
            workload.gate(checks)
            # Let the writeback that set-up and gate queued finish, so it
            # does not compete with the timed region.
            os.sync()
            if trace:
                metrics, detail = _traced(workloads, workload, clock,
                                          seconds, checks)
            else:
                measured = workload.measure(clock, seconds, checks)
                detail = measured.pop("detail")
                measured.pop("layer", None)
                metrics = measured
        finally:
            workload.teardown()
    if not trace:
        metrics["setup_s"] = imported.ref + harness.median(setups)
        rss_kb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        )
        metrics["peak_rss_mb"] = rss_kb / 1024.0
        detail["setup_ref_s"] = setups
        detail["import_ref_s"] = imported.ref
    units = workloads.PER_LAYER_UNITS if trace else workloads.END_TO_END_UNITS
    detail["host_speed"] = clock.host_speed
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "reasons": checks.reasons,
        "metrics": {
            key: {"value": metrics[key], "unit": unit}
            for key, unit in units.items()
        },
        "detail": detail,
        "spec_digest": workload.spec_digest(),
        "fingerprint": harness.fingerprint(),
        "elapsed_s": time.perf_counter() - started,
    }


def _traced(workloads, workload, clock, seconds: float, checks):
    """The traced run: the fixed pass with spans off, then on (with
    cProfile around the profiled stage), the single-shot layer legs,
    and a short untraced leg for the figures that need many samples."""
    out = workloads.zero_layers()
    t0 = time.perf_counter()
    workload.traced_pass(harness.NullTracer(), None, 0, checks)
    off_s = time.perf_counter() - t0
    tracer = harness.Tracer()
    t0 = time.perf_counter()
    counts = workload.traced_pass(tracer, cProfile.Profile(), 1, checks)
    on_s = time.perf_counter() - t0
    out.update(counts)
    out.update(workload.layer_extras(tracer, checks))
    for span, metric in workloads.SPAN_METRICS.items():
        if tracer.durations(span):
            out[metric] = tracer.mean_ms(span)
    layer_shares = harness.shares(workload.tottime)
    for layer, share in layer_shares.items():
        out[f"{layer}.self_share"] = share
    out["trace.overhead_ratio"] = on_s / off_s
    untraced = workload.measure(
        clock, seconds * TRACED_RUN_UNTRACED_SHARE, checks
    )
    out.update(untraced.get("layer", {}))
    cold_raw = untraced["detail"].get("cold_raw_s")
    if cold_raw and out["sim.events"]:
        out["sim.events_per_s"] = out["sim.events"] / cold_raw["median"]
    out["harness.host_speed"] = clock.host_speed
    detail = {
        "traced_pass_s": on_s,
        "untraced_pass_s": off_s,
        "self_share_sum": sum(layer_shares.values()),
        "untraced_leg": untraced["detail"],
    }
    tracer.dump(
        harness.OUT_DIR / f"trace-{workload.name}.json",
        {
            "workload": workload.name,
            "seed": workload.seed,
            "fingerprint": harness.fingerprint(),
            "self_share": layer_shares,
            "self_share_rows": workload.rows,
            "metrics": out,
        },
    )
    return out, detail


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------
def print_run(doc: Dict[str, Any]) -> None:
    kind = "per-layer (traced run)" if doc["trace"] else "end-to-end"
    print(
        f"== {doc['workload']}  seed {doc['seed']}  {doc['seconds']:g} s  "
        f"{kind}  host_speed {doc['detail']['host_speed']:.3f}"
    )
    for name, cell in doc["metrics"].items():
        print(f"  {name:34s} {cell['value']:>16.6g} {cell['unit']}")
    print(
        f"  ops_attempted {doc['attempted']}  ops_failed {doc['failed']}  "
        f"({doc['elapsed_s']:.1f} s in all)"
    )
    for reason in doc["reasons"]:
        print(f"  FAILED: {reason}")
    sys.stdout.flush()


def driver_line(doc: Dict[str, Any]) -> str:
    return json.dumps(
        {key: doc[key] for key in ("correct", "attempted", "failed", "metrics")}
    )


# ----------------------------------------------------------------------
# sets of runs
# ----------------------------------------------------------------------
def run_child(
    name: str, seed: int, seconds: float, trace: int, smoke: bool
) -> Dict[str, Any]:
    """One run as a child process; its full document."""
    harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = harness.OUT_DIR / f"run-{name}-{seed}-{trace}.json"
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--out", str(out),
    ] + (["--smoke"] if smoke else [])
    done = subprocess.run(argv, stdout=subprocess.DEVNULL, timeout=600)
    if not out.exists():
        raise RuntimeError(
            f"{name} seed {seed} trace {trace} exited {done.returncode} "
            "without a result"
        )
    doc = json.loads(out.read_text())["runs"][0]
    out.unlink()
    return doc


def run_set(
    names: List[str], seeds: List[int], seconds: float, traces: List[int],
    smoke: bool,
) -> Dict[str, Any]:
    """Every workload on every seed, workloads interleaved per seed."""
    runs = []
    for trace in traces:
        for seed in seeds if not trace else seeds[:1]:
            for name in names:
                doc = run_child(name, seed, seconds, trace, smoke)
                print_run(doc)
                runs.append(doc)
    return {"fingerprint": harness.fingerprint(), "runs": runs}


def selfcheck(args, names: List[str], seeds: List[int]) -> int:
    import compare

    docs = []
    for label in ("A", "B"):
        print(f"#### selfcheck set {label}")
        doc = run_set(names, seeds, args.seconds, [0, 1], args.smoke)
        path = harness.OUT_DIR / f"selfcheck-{label}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        docs.append(doc)
    print("#### selfcheck: B against A")
    return compare.report(docs[0], docs[1])


def pin_hash_seed() -> None:
    """Re-exec once with ``PYTHONHASHSEED=0``.  ``str`` hashes — and with
    them dict collision patterns — otherwise differ per process, which
    moved the simulator's speed by several percent between identical
    runs.  Children inherit the pin through the environment."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)


def main(argv: Optional[List[str]] = None) -> int:
    run_seconds = (
        json.loads(BENCHMARK.read_text())["run_seconds"]
        if BENCHMARK.exists() else 10
    )
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="repeatable; default: all five")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help="timed region of one run (default: "
                        "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced run, per-layer metrics")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, seeds SEED..SEED+RUNS-1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (what the smoke test uses)")
    parser.add_argument("--out", metavar="FILE",
                        help="write the full documents as JSON")
    parser.add_argument("--selfcheck", action="store_true",
                        help="two sets of --runs runs each, compared")
    args = parser.parse_args(argv)
    harness.make_hermetic()
    names = args.workload or list(WORKLOAD_NAMES)
    seeds = list(range(args.seed, args.seed + args.runs))
    if args.selfcheck:
        return selfcheck(args, names, seeds)
    if len(names) == 1 and args.runs == 1:
        doc = run_workload(
            names[0], args.seed, args.seconds, bool(args.trace), args.smoke
        )
        docs = {"fingerprint": doc["fingerprint"], "runs": [doc]}
        print_run(doc)
    else:
        docs = run_set(names, seeds, args.seconds, [args.trace], args.smoke)
    if args.out:
        Path(args.out).write_text(json.dumps(docs, indent=1) + "\n")
    for doc in docs["runs"]:
        print(driver_line(doc))
    return 0 if all(doc["correct"] for doc in docs["runs"]) else 1


if __name__ == "__main__":
    pin_hash_seed()
    sys.exit(main())
