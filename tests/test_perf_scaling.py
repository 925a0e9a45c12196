"""Tier-1 smoke tests for the perf benchmark subsystem.

Runs the N=16 saturated scenario briefly with an events-executed budget
assertion (the kernel must neither stall nor explode), and checks the
``BENCH_perf.json`` machinery and the ``repro perf`` CLI end to end on
a tiny matrix.
"""

import json

import pytest

from repro.perf import (
    PerfScenario,
    build_cell,
    build_report,
    load_report,
    matrix,
    render_table,
    run_scenario,
    sample_row,
    write_report,
)
from repro.perf.cli import main as perf_cli_main

#: N=16 smoke scenario: short but long enough to saturate the cell.
SMOKE = PerfScenario(stations=16, scheduler="tbr", profile="multi", seconds=0.2)

#: Events the smoke scenario may execute.  The exact count is
#: deterministic (asserted below); the budget guards against the kernel
#: regressing into scheduling storms (e.g. a timer rescheduling itself
#: at zero delay) without pinning the number itself.
SMOKE_EVENT_BUDGET = 20_000


def test_n16_smoke_within_event_budget():
    sample = run_scenario(SMOKE)
    assert 0 < sample.events <= SMOKE_EVENT_BUDGET
    assert sample.sim_s == pytest.approx(0.2)
    assert sample.total_mbps > 0  # the saturated cell carried traffic
    assert sample.events_per_sec > 0


def test_smoke_event_count_is_deterministic():
    first = run_scenario(SMOKE)
    second = run_scenario(SMOKE)
    assert first.events == second.events
    assert first.total_mbps == second.total_mbps


def test_budget_enforceable_with_max_events():
    # The budget assertion above is advisory; this drives the same cell
    # through the kernel's hard cap to prove the cap composes with it.
    cell = build_cell(SMOKE)
    # (The uncapped run executes 316 events; the cap must sit below.)
    cell.sim.run(until=200_000.0, max_events=250)
    assert cell.sim.events_executed == 250


def test_scenario_validation():
    with pytest.raises(ValueError):
        PerfScenario(stations=0, scheduler="fifo")
    with pytest.raises(ValueError):
        PerfScenario(stations=4, scheduler="fifo", profile="nope")
    with pytest.raises(ValueError):
        PerfScenario(stations=4, scheduler="fifo", seconds=0.0)


def test_matrix_axes_and_seconds_schedule():
    scenarios = matrix((4, 64), ("fifo", "tbr"), ("multi",))
    keys = [scenario.key for scenario in scenarios]
    assert keys == ["fifo/multi/n4", "fifo/multi/n64", "tbr/multi/n4", "tbr/multi/n64"]
    by_n = {scenario.stations: scenario.seconds for scenario in scenarios}
    assert by_n[4] == 2.0 and by_n[64] == 0.5


def test_multi_profile_rates_cycle():
    scenario = PerfScenario(stations=6, scheduler="fifo", profile="multi")
    assert scenario.station_rates() == [1.0, 2.0, 5.5, 11.0, 1.0, 2.0]
    same = PerfScenario(stations=3, scheduler="fifo", profile="same")
    assert same.station_rates() == [11.0, 11.0, 11.0]


def test_bench_perf_json_round_trip(tmp_path):
    sample = run_scenario(
        PerfScenario(stations=4, scheduler="tbr", profile="multi", seconds=0.1)
    )
    target = tmp_path / "BENCH_perf.json"
    written = write_report([sample], target, note="unit test")
    assert written == target
    report = load_report(target)
    assert report["benchmark"] == "perf_scaling"
    assert report["note"] == "unit test"
    [row] = report["results"]
    assert row["key"] == "tbr/multi/n4"
    assert row["events"] == sample.events
    assert row["events_per_sec"] > 0
    # Raw JSON on disk parses to the same document.
    assert json.loads(target.read_text()) == report


def test_report_headline_present_when_scenario_included():
    sample = run_scenario(
        PerfScenario(stations=64, scheduler="tbr", profile="multi", seconds=0.05)
    )
    report = build_report([sample])
    assert report["headline"] is not None
    assert report["headline"]["key"] == "tbr/multi/n64"
    other = build_report(
        [run_scenario(PerfScenario(stations=4, scheduler="fifo", seconds=0.05))]
    )
    assert other["headline"] is None


def test_render_table_lists_each_scenario():
    sample = run_scenario(
        PerfScenario(stations=4, scheduler="drr", profile="same", seconds=0.05)
    )
    table = render_table([sample])
    assert "drr/same" in table
    assert "events/sec" in table
    assert sample_row(sample)["scheduler"] == "drr"


def test_perf_cli_writes_json(tmp_path, capsys):
    target = tmp_path / "bench.json"
    rc = perf_cli_main(
        [
            "--stations", "4",
            "--schedulers", "fifo",
            "--profiles", "same",
            "--seconds", "0.05",
            "--output", str(target),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "fifo/same" in out
    assert target.exists()
    report = json.loads(target.read_text())
    assert [row["key"] for row in report["results"]] == ["fifo/same/n4"]


def test_perf_cli_no_json(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = perf_cli_main(
        ["--stations", "4", "--schedulers", "fifo", "--profiles", "same",
         "--seconds", "0.05", "--no-write"]
    )
    assert rc == 0
    assert not (tmp_path / "BENCH_perf.json").exists()
    assert "Simulator scaling" in capsys.readouterr().out


def test_perf_cli_output_flag(tmp_path, capsys):
    target = tmp_path / "custom.json"
    rc = perf_cli_main(
        ["--stations", "4", "--schedulers", "fifo", "--profiles", "same",
         "--seconds", "0.05", "--output", str(target)]
    )
    assert rc == 0
    assert target.exists()
    report = json.loads(target.read_text())
    assert [row["key"] for row in report["results"]] == ["fifo/same/n4"]
    assert report["campaign"] is None  # no --campaign requested


def test_perf_cli_no_write_flag(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = perf_cli_main(
        ["--stations", "4", "--schedulers", "fifo", "--profiles", "same",
         "--seconds", "0.05", "--no-write"]
    )
    assert rc == 0
    assert not (tmp_path / "BENCH_perf.json").exists()


def test_perf_cli_rejects_missing_output_parent(tmp_path):
    with pytest.raises(SystemExit):
        perf_cli_main(
            ["--stations", "4", "--schedulers", "fifo", "--profiles", "same",
             "--seconds", "0.05",
             "--output", str(tmp_path / "missing" / "b.json")]
        )


def test_perf_cli_rejects_output_and_json_together(tmp_path):
    with pytest.raises(SystemExit):
        perf_cli_main(
            ["--output", str(tmp_path / "a.json"),
             "--json", str(tmp_path / "b.json")]
        )


def test_report_round_trips_campaign_section(tmp_path):
    sample = run_scenario(
        PerfScenario(stations=4, scheduler="fifo", profile="same", seconds=0.05)
    )
    campaign = {"jobs": 7, "serial_wall_s": 1.0, "parallel_wall_s": 0.5}
    target = write_report([sample], tmp_path / "b.json", campaign=campaign)
    assert load_report(target)["campaign"] == campaign


def test_sample_records_event_categories():
    sample = run_scenario(
        PerfScenario(stations=4, scheduler="tbr", profile="multi", seconds=0.1)
    )
    cats = sample.events_by_category
    assert set(cats) == {"traffic", "mac", "phy", "timer", "other"}
    assert sum(cats.values()) == sample.events
    # Saturated downlink: traffic events exist and cost one per packet.
    assert cats["traffic"] > 0
    row = sample_row(sample)
    assert row["events_by_category"] == cats


def test_report_round_trips_event_categories(tmp_path):
    sample = run_scenario(
        PerfScenario(stations=4, scheduler="fifo", profile="same", seconds=0.05)
    )
    target = write_report([sample], tmp_path / "b.json")
    [row] = load_report(target)["results"]
    assert row["events_by_category"] == sample.events_by_category


def test_perf_cli_events_flag(tmp_path, capsys):
    rc = perf_cli_main(
        ["--stations", "4", "--schedulers", "fifo", "--profiles", "same",
         "--seconds", "0.05", "--events", "--no-write"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "Kernel events by category" in out
    assert "traffic" in out and "phy" in out


def test_campaign_bench_single_worker_skips_parallel_leg():
    """With one usable worker the parallel leg is skipped, annotated,
    and the JSON row says why (the old behavior produced a misleading
    sub-1 'speedup' on single-core hosts)."""
    from repro.perf.campaign_bench import (
        campaign_row,
        render_campaign,
        run_campaign_bench,
    )

    sample = run_campaign_bench(
        ["fig2"], workers=1, seconds={"fig2": 0.2}
    )
    assert sample.parallel_wall_s is None
    assert sample.parallel_speedup is None
    assert "skipped" in sample.degraded_reason
    assert sample.warm_executed == 0  # warm leg still runs, via cache
    assert 0 <= sample.warm_fraction < 1
    row = campaign_row(sample)
    assert json.dumps(row)
    assert row["parallel_wall_s"] is None
    assert row["parallel_speedup"] is None
    assert "skipped" in row["degraded_reason"]
    assert "skipped" in render_campaign(sample)


def test_campaign_bench_smoke(tmp_path):
    # Two cheap experiments, tiny durations: all three legs run, the
    # warm leg executes nothing, and the row is JSON-serializable.
    from repro.perf.campaign_bench import campaign_row, run_campaign_bench

    sample = run_campaign_bench(
        ["fig2", "table4"],
        workers=2,
        seconds={"fig2": 0.3, "table4": 0.3},
    )
    assert sample.jobs == 4
    assert sample.warm_executed == 0
    assert sample.serial_wall_s > 0 and sample.parallel_wall_s > 0
    assert sample.warm_wall_s < sample.parallel_wall_s
    row = campaign_row(sample)
    assert json.dumps(row)  # plain JSON types only
    assert row["workers"] == 2
    assert row["experiments"] == ["fig2", "table4"]
