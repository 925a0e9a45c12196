"""Append one row-set to the perf ledger: ``benchmarks/ledger.py DOC.json``.

``DOC.json`` is what ``benchmarks/suite/run.py --runs K [--trace 1] --out
DOC.json`` wrote.  ``BENCH_perf.json`` at the repo root is a JSON list,
append-only, every element one row-set in one schema — ``{commit,
fingerprint, seconds, seeds, failed, workloads: {name: {metric: {median,
q1, q3, n, unit}}}}`` — so any two are comparable PR to PR: end-to-end
metrics from the document's untraced runs, per-layer metrics from its
traced ones.  A document with a failed operation, or taken at ``--smoke``
sizes, is refused.

This lives outside ``benchmarks/suite/`` only because the PR that wrote it
could not edit the suite; ROADMAP item 1(a) folds it into ``run.py
--ledger``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent / "suite"))

import compare  # noqa: E402  (needs the path entry above)
import harness  # noqa: E402

LEDGER = harness.REPO_ROOT / "BENCH_perf.json"


def commit() -> str:
    """The checkout the numbers were taken on (``-dirty``: not committed)."""
    return subprocess.run(
        ["git", "describe", "--always", "--dirty", "--abbrev=12"],
        cwd=harness.REPO_ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()


def row_set(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Medians and quartiles per workload and metric over ``doc``'s runs."""
    runs = doc["runs"]
    failed = sum(run["failed"] for run in runs)
    if failed or not all(run["correct"] for run in runs):
        raise SystemExit(f"refused: {failed} failed operation(s) in the runs")
    if any(run["smoke"] for run in runs):
        raise SystemExit("refused: --smoke sizes are not the benchmark's")
    (seconds,) = {run["seconds"] for run in runs}
    workloads: Dict[str, Dict[str, Any]] = {}
    for (name, _trace), group in sorted(compare.by_workload(doc).items()):
        for key, cell in group[0]["metrics"].items():
            values = [run["metrics"][key]["value"] for run in group]
            q1, _, q3 = harness.quartiles(values)
            workloads.setdefault(name, {})[key] = {
                "median": harness.median(values), "q1": q1, "q3": q3,
                "n": len(values), "unit": cell["unit"],
            }
    return {
        "commit": commit(), "fingerprint": doc["fingerprint"],
        "seconds": seconds, "seeds": sorted({run["seed"] for run in runs}),
        "failed": failed, "workloads": workloads,
    }


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    ledger = json.loads(LEDGER.read_text()) if LEDGER.exists() else []
    ledger.append(row_set(json.loads(Path(argv[0]).read_text())))
    text = json.dumps(ledger, indent=1)
    # One metric a line: a PR's diff is its row-set, readable as a table.
    text = re.sub(r'\{\s+("median"[^{}]*?)\s+\}',
                  lambda m: "{" + " ".join(m.group(1).split()) + "}", text)
    LEDGER.write_text(text + "\n")
    print(f"{LEDGER.name}: {len(ledger)} row-set(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
