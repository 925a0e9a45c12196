"""Tests for the command-line runner."""

import pytest

from repro.cli import main
from repro.experiments import REGISTRY


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


def test_list_does_not_offer_perf(capsys):
    # Exactly the experiments and the three subcommands: no benchmark
    # entry point (performance is measured by benchmarks/suite).
    assert main(["list"]) == 0
    offered = {
        line.split()[0] for line in capsys.readouterr().out.splitlines()
    }
    assert offered == set(REGISTRY) | {"campaign", "scenario", "serve"}


def test_perf_subcommand_is_an_unknown_experiment(capsys):
    assert main(["perf"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment 'perf'" in err
    for valid in ("fig9", "table3", "all", "list"):
        assert valid in err
