"""Tests for the command-line runner."""

import pytest

from repro.cli import main


def test_list_prints_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig1", "fig9", "table4"):
        assert name in out


def test_unknown_experiment_errors(capsys):
    assert main(["nonsense"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_single_experiment_runs(capsys):
    assert main(["fig2", "--seconds", "2", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out
    assert "channel-time ratio" in out


def test_table2_runs_with_seconds(capsys):
    assert main(["table2", "--seconds", "2"]) == 0
    assert "Table 2" in capsys.readouterr().out


def test_fig5_duration_mapping(capsys):
    # fig5.run takes duration_s, exercised via the --seconds flag.
    assert main(["fig5", "--seconds", "7200"]) == 0
    assert "Figure 5" in capsys.readouterr().out


def test_list_mentions_perf(capsys):
    assert main(["list"]) == 0
    assert "perf" in capsys.readouterr().out


def test_perf_subcommand_dispatches(tmp_path, capsys):
    target = tmp_path / "bench.json"
    rc = main(
        ["perf", "--stations", "4", "--schedulers", "fifo",
         "--profiles", "same", "--seconds", "0.05", "--output", str(target)]
    )
    assert rc == 0
    assert "events/sec" in capsys.readouterr().out
    assert target.exists()
