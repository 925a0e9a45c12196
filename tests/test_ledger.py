"""The perf ledger: ``benchmarks/ledger.py`` and the tracked
``BENCH_perf.json`` it appends to."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import ledger  # noqa: E402  (needs the path entry above)

ROW_SET_KEYS = {
    "commit", "fingerprint", "seconds", "seeds", "failed", "workloads",
}
CELL_KEYS = {"median", "q1", "q3", "n", "unit"}


def suite_run(seed, value, trace=0, failed=0, smoke=False):
    """One run as ``run.py --out`` records it (the fields the ledger reads)."""
    name, unit = ("sim.events", "count") if trace else ("warm_p50_ms", "ms")
    return {
        "workload": "cell-saturated", "seed": seed, "seconds": 10.0,
        "trace": trace, "smoke": smoke, "correct": not failed,
        "failed": failed, "metrics": {name: {"value": value, "unit": unit}},
    }


@pytest.fixture
def append(tmp_path, monkeypatch):
    monkeypatch.setattr(ledger, "LEDGER", tmp_path / "BENCH_perf.json")
    monkeypatch.setattr(ledger, "commit", lambda: "abc123-dirty")

    def _append(runs):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"fingerprint": {"nproc": 2}, "runs": runs}))
        return ledger.main([str(doc)])

    return _append


def test_row_set_holds_medians_quartiles_and_provenance(append):
    runs = [suite_run(1, 3.0), suite_run(2, 1.0), suite_run(3, 2.0),
            suite_run(1, 705, trace=1)]
    assert append(runs) == 0
    [row] = json.loads(ledger.LEDGER.read_text())
    assert set(row) == ROW_SET_KEYS
    assert (row["commit"], row["fingerprint"]) == ("abc123-dirty", {"nproc": 2})
    assert (row["seconds"], row["seeds"], row["failed"]) == (10.0, [1, 2, 3], 0)
    # End-to-end from the untraced runs, per-layer from the traced one.
    assert row["workloads"] == {
        "cell-saturated": {
            "warm_p50_ms":
                {"median": 2.0, "q1": 1.0, "q3": 3.0, "n": 3, "unit": "ms"},
            "sim.events":
                {"median": 705, "q1": 705, "q3": 705, "n": 1, "unit": "count"},
        }
    }


def test_ledger_is_append_only(append):
    assert append([suite_run(1, 1.0)]) == 0
    first = ledger.LEDGER.read_text()
    assert append([suite_run(1, 2.0)]) == 0
    rows = json.loads(ledger.LEDGER.read_text())
    assert [r["workloads"]["cell-saturated"]["warm_p50_ms"]["median"]
            for r in rows] == [1.0, 2.0]
    assert rows[:1] == json.loads(first)


@pytest.mark.parametrize("bad", [{"failed": 1}, {"smoke": True}])
def test_refuses_failed_operations_and_smoke_sizes(append, bad):
    with pytest.raises(SystemExit, match="refused"):
        append([suite_run(1, 1.0), suite_run(2, 1.0, **bad)])
    assert not ledger.LEDGER.exists()


def test_wants_exactly_one_document(capsys):
    assert ledger.main([]) == 2
    assert "ledger.py DOC.json" in capsys.readouterr().err


def test_tracked_ledger_is_one_schema_and_covers_the_contract():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in bench["workloads"]}
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    rows = json.loads((ROOT / "BENCH_perf.json").read_text())
    assert isinstance(rows, list) and rows
    for row in rows:
        assert set(row) == ROW_SET_KEYS
        assert row["failed"] == 0
        assert set(row["workloads"]) == names
        for cells in row["workloads"].values():
            assert set(cells) <= end_to_end | per_layer
            for cell in cells.values():
                assert set(cell) == CELL_KEYS
                assert cell["q1"] <= cell["median"] <= cell["q3"]
    # Every workload's five end-to-end metrics, over repeats, are there.
    assert any(
        all(end_to_end <= set(cells) and cells["setup_s"]["n"] >= 5
            for cells in row["workloads"].values())
        for row in rows
    )


#: Deterministic per-layer counts of the traced runs (seed 1, the
#: benchmark's sizes): the same program on the same input, so PR to PR
#: they move only when a change removes (or adds) simulated work.
TRACKED_COUNTS = (
    "sim.events", "sim.timer_events", "mac.events", "phy.events",
    "transport.events",
)


def test_tracked_counts_never_rise():
    """Over consecutive row-sets that carry them, the event counts of
    every workload may only fall and ``share_err`` — the science — may
    not move at all: a row-set that breaks this needs a CHANGES.md line
    saying why, and this test edited beside it."""
    rows = json.loads((ROOT / "BENCH_perf.json").read_text())
    traced = [
        row for row in rows
        if all("sim.events" in cells for cells in row["workloads"].values())
    ]
    assert len(traced) >= 2
    for before, after in zip(traced, traced[1:]):
        for name, cells in after["workloads"].items():
            earlier = before["workloads"][name]
            where = f"{name}: {before['commit']} -> {after['commit']}"
            for metric in TRACKED_COUNTS:
                assert (cells[metric]["median"]
                        <= earlier[metric]["median"]), (where, metric)
            assert (cells["share_err"]["median"]
                    == earlier["share_err"]["median"]), where
