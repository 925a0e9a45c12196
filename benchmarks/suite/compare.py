"""Compare two sets of runs of the suite: ``compare.py A.json B.json``.

``A`` is the base (the parent commit, or the first of two sets of the
same code), ``B`` what is held against it.  For every workload and
end-to-end metric it prints both medians, the change as a share of
``A``'s median (positive = worse, given the metric's direction), each
set's quartile spread, and a verdict against the bound
``BENCHMARK.json`` fixes:

* ``agree`` — ``B`` is no worse than ``A`` by more than the bound, and
  neither set spreads wider than the bound;
* ``regressed`` — worse by more than the bound, and either the spreads
  are within the bound or every ``B`` run is worse than every ``A`` run;
* ``unresolved`` — the spread is wider than the bound, so neither
  "worse" nor "unchanged" can be said.  ``setup_s`` is held to its
  median only, as the driver holds it: set-up is mostly fsync, whose
  latency moves more between runs than any bound allows.

Count metrics of the traced runs (and ``share_err``, and the simulated
seconds skipped) repeat exactly for a seed, so they are compared
exactly: ``identical`` or ``differs``.  Exits non-zero unless
every row is ``agree`` / ``identical`` and no operation failed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

import harness

Runs = Dict[Tuple[str, int], List[Dict[str, Any]]]

#: End-to-end metrics whose spread is reported but not held to the bound.
SPREAD_EXEMPT = ("setup_s",)

#: Units of the per-layer metrics that are a pure function of the seed.
EXACT_UNITS = ("count", "abs", "sim_s")


def by_workload(doc: Dict[str, Any]) -> Runs:
    """``(workload, trace) -> runs`` in seed order."""
    out: Runs = {}
    for run in doc["runs"]:
        out.setdefault((run["workload"], run["trace"]), []).append(run)
    for runs in out.values():
        runs.sort(key=lambda run: run["seed"])
    return out


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = harness.quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def verdict(
    a: List[float], b: List[float], better: str, bound: float,
    hold_spread: bool = True,
) -> Tuple[float, float, float, str]:
    """``(change, spread_a, spread_b, verdict)``; ``change`` is positive
    when ``b`` is worse, as a share of ``a``'s median."""
    med_a, med_b = harness.median(a), harness.median(b)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (med_b - med_a) / med_a
    spread_a, spread_b = spread(a), spread(b)
    noisy = hold_spread and max(spread_a, spread_b) > bound
    if better == "lower":
        separated = min(b) > max(a)
    else:
        separated = max(b) < min(a)
    if change > bound:
        return change, spread_a, spread_b, (
            "regressed" if separated or not noisy else "unresolved"
        )
    return change, spread_a, spread_b, "unresolved" if noisy else "agree"


def report(doc_a: Dict[str, Any], doc_b: Dict[str, Any]) -> int:
    bench = json.loads((harness.REPO_ROOT / "BENCHMARK.json").read_text())
    runs_a, runs_b = by_workload(doc_a), by_workload(doc_b)
    bad = 0
    print(
        f"{'workload':15s} {'metric':18s} {'A median':>12s} {'B median':>12s} "
        f"{'worse by':>9s} {'bound':>6s} {'IQR A':>7s} {'IQR B':>7s}  verdict"
    )
    for (name, trace) in sorted(set(runs_a) & set(runs_b)):
        a_runs, b_runs = runs_a[(name, trace)], runs_b[(name, trace)]
        failed = sum(run["failed"] for run in a_runs + b_runs)
        if failed:
            bad += 1
            print(f"{name:15s} ops_failed {failed}  FAILED")
        if trace:
            bad += _compare_counts(name, a_runs, b_runs, bench)
            continue
        for metric in bench["end_to_end"]:
            key = metric["name"]
            a = [run["metrics"][key]["value"] for run in a_runs]
            b = [run["metrics"][key]["value"] for run in b_runs]
            change, spread_a, spread_b, word = verdict(
                a, b, metric["better"], metric["bound"],
                hold_spread=key not in SPREAD_EXEMPT,
            )
            bad += word != "agree"
            print(
                f"{name:15s} {key:18s} {harness.median(a):12.5g} "
                f"{harness.median(b):12.5g} {change:+9.1%} "
                f"{metric['bound']:6.0%} {spread_a:7.1%} {spread_b:7.1%}  "
                f"{word} (n={len(a)}/{len(b)}, base {harness.median(a):.5g} "
                f"{metric['unit']})"
            )
    print("every row agrees" if not bad else f"{bad} row(s) do not agree")
    return 1 if bad else 0


def _compare_counts(name, a_runs, b_runs, bench) -> int:
    """Exact comparison of the seed-determined metrics of traced runs,
    seed by seed."""
    counts = [
        m["name"] for m in bench["per_layer"] if m["unit"] in EXACT_UNITS
    ]
    differing = []
    pairs = 0
    seeds_b = {run["seed"]: run for run in b_runs}
    for run_a in a_runs:
        run_b = seeds_b.get(run_a["seed"])
        if run_b is None:
            continue
        pairs += 1
        differing += [
            f"{key}@seed{run_a['seed']}"
            for key in counts
            if run_a["metrics"][key]["value"] != run_b["metrics"][key]["value"]
        ]
    word = "identical" if not differing else "differs: " + ", ".join(differing)
    print(
        f"{name:15s} {len(counts)} exact metrics over {pairs} traced "
        f"pair(s)  {word}"
    )
    return 1 if differing or not pairs else 0


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    docs = [json.loads(Path(path).read_text()) for path in argv]
    return report(docs[0], docs[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
