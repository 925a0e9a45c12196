"""Smoke test of the benchmark suite at ``--smoke`` sizes (tier-1).

Holds the suite to ``BENCHMARK.json`` — every workload and metric it
names is emitted, and nothing else — and holds the count metrics to
determinism: identical for a seed, different inputs for another seed.
No timing is asserted; that is what ``run.py --selfcheck`` is for.
"""

import json
import os
import re
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
sys.path.insert(0, str(SUITE))

import compare  # noqa: E402
import harness  # noqa: E402
import run as suite  # noqa: E402

BENCH = json.loads((harness.REPO_ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
EXACT_UNITS = compare.EXACT_UNITS


@pytest.fixture(scope="module")
def runs():
    """Per workload: an untraced and two traced runs of one seed.  The suite scrubs ``os.environ``; put it back
    so the rest of the session sees what it started with."""
    saved = dict(os.environ)
    stale = set(harness.OUT_DIR.glob("tmp-*"))
    try:
        yield {
            name: {
                "e2e": suite.run_workload(name, 1, 0.3, False, smoke=True),
                "traced": suite.run_workload(name, 1, 0.3, True, smoke=True),
                "again": suite.run_workload(name, 1, 0.3, True, smoke=True),
            }
            for name in suite.WORKLOAD_NAMES
        }
    finally:
        os.environ.clear()
        os.environ.update(saved)
    # stores, spools and the serve store lived under out/ and are gone
    assert set(harness.OUT_DIR.glob("tmp-*")) <= stale


def test_benchmark_json_meets_the_contract():
    assert set(BENCH) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert BENCH["paths"] == ["benchmarks/suite"]
    assert BENCH["command"][-1].startswith(BENCH["paths"][0] + "/")
    assert 1 <= BENCH["run_seconds"] <= 60
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in BENCH[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in BENCH["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in BENCH["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCH["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [
        {"name": "setup_s", "unit": "s", "better": "lower",
         "bound": max(m["bound"] for m in BENCH["end_to_end"])}
    ]
    # the suite bounds its runs so that the driver's 4 + 22 x workloads
    # runs fit its cap with set-up, gate and teardown on top
    assert (4 + 22 * len(BENCH["workloads"])) * 3 * BENCH["run_seconds"] <= 3420


def test_workloads_match_benchmark_json(runs):
    assert [w["name"] for w in BENCH["workloads"]] == list(runs)
    assert list(runs) == list(suite.WORKLOAD_NAMES)


@pytest.mark.parametrize("kind, key", [("e2e", "end_to_end"), ("traced", "per_layer")])
def test_metrics_match_benchmark_json_and_back(runs, kind, key):
    declared = {m["name"]: m["unit"] for m in BENCH[key]}
    for name, by_kind in runs.items():
        emitted = {
            metric: cell["unit"]
            for metric, cell in by_kind[kind]["metrics"].items()
        }
        assert emitted == declared, name
        line = json.loads(suite.driver_line(by_kind[kind]))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0, (
            name, by_kind[kind]["reasons"],
        )
        assert line["attempted"] >= 1


def test_end_to_end_metrics_are_never_zero(runs):
    for name, by_kind in runs.items():
        for metric, cell in by_kind["e2e"]["metrics"].items():
            assert cell["value"] > 0, (name, metric)


def test_counts_repeat_for_a_seed_and_inputs_follow_the_seed(runs):
    exact = [m["name"] for m in BENCH["per_layer"] if m["unit"] in EXACT_UNITS]
    assert "sim.events" in exact and "serve.hits" in exact
    import workloads

    for name, by_kind in runs.items():
        first, again = by_kind["traced"], by_kind["again"]
        for metric in exact:
            assert (
                first["metrics"][metric]["value"]
                == again["metrics"][metric]["value"]
            ), (name, metric)
        assert first["spec_digest"] == again["spec_digest"]
        assert first["spec_digest"] == by_kind["e2e"]["spec_digest"]
        other_seed = workloads.WORKLOADS[name](2, smoke=True)
        assert first["spec_digest"] != other_seed.spec_digest(), name
        same_seed = workloads.WORKLOADS[name](1, smoke=True)
        assert first["spec_digest"] == same_seed.spec_digest(), name


def test_layer_predictions_hold_at_smoke_size(runs):
    def value(name, metric):
        return runs[name]["traced"]["metrics"][metric]["value"]

    assert value("cell-saturated", "sim.ff_jumps") == 0
    assert value("steady-horizon", "sim.ff_jumps") > 0
    assert value("campus-grid", "phy.events") > value("campus-grid", "mac.events")
    assert value("campus-grid", "campus.roams") > 0
    assert value("campaign-sweep", "campaign.executed") > 0
    assert value("campaign-sweep", "campaign.hits") == value(
        "campaign-sweep", "campaign.executed"
    )
    assert value("serve-mixed", "serve.hits") > 0
    assert value("serve-mixed", "serve.misses") > 0
    assert value("serve-mixed", "serve.errors") == 0
    for name in runs:
        total = runs[name]["traced"]["detail"]["self_share_sum"]
        assert total == pytest.approx(1.0, abs=0.02), name
        assert value(name, "trace.overhead_ratio") > 0


def test_trace_file_has_spans_with_parents_and_request_ids(runs):
    for name in runs:
        doc = json.loads((harness.OUT_DIR / f"trace-{name}.json").read_text())
        assert doc["span_fields"] == ["name", "start_s", "end_s", "parent", "rid"]
        spans = doc["spans"]
        assert spans and all(end >= start for _, start, end, _, _ in spans)
        children = [span for span in spans if span[3] is not None]
        assert children, name
        for _, _, _, parent, rid in children:
            assert spans[parent][4] == rid
        assert all(value >= -1e-9 for value in doc["self_time_s"].values())


def test_runs_are_hermetic(monkeypatch):
    for name in harness.SCRUBBED_ENV:
        monkeypatch.setenv(name, "1")
    harness.make_hermetic()
    assert not set(harness.SCRUBBED_ENV) & set(os.environ)
    assert not set(harness.SCRUBBED_ENV) & set(harness.child_env())


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.05, 9.95]
    assert compare.verdict(base, base, "lower", 0.10)[3] == "agree"
    slower = [value * 1.3 for value in base]
    assert compare.verdict(base, slower, "lower", 0.10)[3] == "regressed"
    assert compare.verdict(base, slower, "higher", 0.10)[3] == "agree"
    noisy = [6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, noisy, "lower", 0.10)[3] == "unresolved"
    change = compare.verdict(base, slower, "lower", 0.10)[0]
    assert change == pytest.approx(0.3)
