"""Tests for the command-line runner."""

import pytest

from repro.cli import main
from repro.experiments import EXPERIMENTS, Experiment


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
    # fig5's duration is a day by default; --seconds shortens it.
    assert main(["fig5", "--seconds", "7200"]) == 0
    assert "Figure 5" in capsys.readouterr().out


def test_list_does_not_offer_perf(capsys):
    # Exactly the experiments and the three subcommands: no benchmark
    # entry point (performance is measured by benchmarks/suite).
    assert main(["list"]) == 0
    offered = {
        line.split()[0] for line in capsys.readouterr().out.splitlines()
    }
    assert offered == set(EXPERIMENTS) | {"campaign", "scenario", "serve"}


def test_perf_subcommand_is_an_unknown_experiment(capsys):
    assert main(["perf"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment 'perf'" in err
    for valid in ("fig9", "table3", "all", "list"):
        assert valid in err


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["fairness-outage", "--seconds", "1"], "phases must satisfy"),
        (["fig2", "--seconds", "0"], "seconds must be positive"),
    ],
)
def test_duration_the_job_factory_rejects_is_a_usage_error(
    capsys, argv, reason
):
    # Exit 2 with the one-line reason, like `repro scenario run`, not a
    # ValueError traceback.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert reason in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_ablation_runs_like_any_experiment(capsys):
    # `python -m repro abl-bg` renders what the campaign CLI renders.
    assert main(["abl-bg", "--seconds", "1"]) == 0
    direct = capsys.readouterr().out
    assert "802.11b/g coexistence" in direct
    assert main(
        ["campaign", "abl-bg", "--seconds", "1", "--no-cache", "--quiet",
         "--jobs", "1"]
    ) == 0
    campaign = capsys.readouterr().out
    assert campaign.startswith(direct)


def test_all_stays_the_thirteen_reproductions(monkeypatch, capsys):
    # 'all' runs the figures, tables and fairness-*; the ablations are
    # registered like any experiment but run by name.
    stubs = {
        name: Experiment(
            name, "", lambda **knobs: [], dict, lambda result, name=name: name
        )
        for name in EXPERIMENTS
    }
    monkeypatch.setattr("repro.cli.EXPERIMENTS", stubs)
    assert main(["all"]) == 0
    ran = capsys.readouterr().out.split()
    assert ran == [n for n in EXPERIMENTS if not n.startswith("abl-")]
    assert len(ran) == 13
