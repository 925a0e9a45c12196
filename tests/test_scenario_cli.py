"""Tests for ``python -m repro scenario`` (and its top-level dispatch)."""

import pytest

from repro.cli import main as repro_main
from repro.scenario.cli import main


def test_list_prints_families_and_knobs(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for family in ("churn", "mobility", "bursty", "mixed"):
        assert family in out
    assert "period_s" in out  # knobs are discoverable


def test_top_level_cli_dispatches_scenario(capsys):
    assert repro_main(["scenario", "list"]) == 0
    assert "churn" in capsys.readouterr().out


def test_top_level_list_mentions_scenario(capsys):
    assert repro_main(["list"]) == 0
    assert "scenario" in capsys.readouterr().out


def test_run_with_overrides(capsys):
    rc = main(
        ["run", "mixed", "--seconds", "0.4", "--seed", "3",
         "--set", "warmup_s=0.1", "--set", "n_udp=1"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "Scenario mixed[" in out
    assert "seed 3" in out
    assert "kernel events:" in out


def test_run_unknown_family_errors(capsys):
    assert main(["run", "nonsense"]) == 2
    assert "unknown scenario family" in capsys.readouterr().err


def test_run_unknown_knob_errors(capsys):
    assert main(["run", "churn", "--set", "bogus=1"]) == 2
    err = capsys.readouterr().err
    assert "bogus" in err and "valid" in err


def test_run_rejects_flag_and_set_for_same_knob(capsys):
    rc = main(["run", "churn", "--seconds", "2", "--set", "seconds=5"])
    assert rc == 2
    assert "pick one" in capsys.readouterr().err


def test_run_invalid_spec_value_errors_cleanly(capsys):
    assert main(["run", "churn", "--seconds", "-1"]) == 2
    assert "seconds must be positive" in capsys.readouterr().err


def test_run_mistyped_knob_errors_cleanly(capsys):
    assert main(["run", "churn", "--set", "n_joiners=2.5"]) == 2
    assert capsys.readouterr().err.strip()


def test_sweep_invalid_axis_value_errors_cleanly(capsys):
    rc = main(["sweep", "churn", "--axis", "seconds=-1,-2"])
    assert rc == 2
    assert "seconds must be positive" in capsys.readouterr().err


def test_sweep_empty_axis_errors_instead_of_running_nothing(capsys):
    rc = main(["sweep", "churn", "--axis", "scheduler="])
    assert rc == 2
    assert "no values" in capsys.readouterr().err


def test_malformed_set_errors_cleanly(capsys):
    assert main(["run", "churn", "--set", "noequals"]) == 2
    assert "key=value" in capsys.readouterr().err


def test_malformed_axis_errors_cleanly(capsys):
    assert main(["sweep", "churn", "--axis", "noequals"]) == 2
    assert "key=value" in capsys.readouterr().err


def test_repeated_axis_key_errors_instead_of_dropping_values(capsys):
    rc = main(
        ["sweep", "bursty",
         "--axis", "scheduler=fifo", "--axis", "scheduler=tbr"]
    )
    assert rc == 2
    assert "twice" in capsys.readouterr().err


def test_nonpositive_interval_knobs_error_instead_of_hanging(capsys):
    assert main(["run", "mobility", "--set", "dwell_s=0"]) == 2
    assert "dwell_s must be positive" in capsys.readouterr().err
    assert main(["run", "bursty", "--set", "on_s=0"]) == 2
    assert "must be positive" in capsys.readouterr().err


def test_non_finite_knobs_error_instead_of_hanging(capsys):
    # bursty lays out its bursts up to the horizon: inf never ends.
    assert main(["run", "bursty", "--set", "seconds=inf"]) == 2
    assert "seconds must be a finite number, got inf" in (
        capsys.readouterr().err
    )
    assert main(["run", "churn", "--seconds", "nan"]) == 2
    assert "seconds must be a finite number, got nan" in (
        capsys.readouterr().err
    )
    assert main(["sweep", "steady-long", "--axis", "seconds=1,inf"]) == 2
    assert "seconds[1] must be a finite" in capsys.readouterr().err


def test_sweep_uses_cache(tmp_path, capsys):
    args = [
        "sweep", "bursty",
        "--axis", "scheduler=fifo,tbr",
        "--set", "seconds=0.5", "--set", "warmup_s=0.1",
        "--jobs", "1",
        "--cache-dir", str(tmp_path / "cache"),
        "--quiet",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "Scenario bursty[scheduler=fifo" in out
    assert "Scenario bursty[scheduler=tbr" in out
    assert "2 executed" in out

    assert main(args) == 0
    assert "2 cache hits" in capsys.readouterr().out


def test_sweep_rejects_axis_and_set_for_same_knob(capsys):
    rc = main(
        ["sweep", "bursty",
         "--axis", "udp_mbps=4,8", "--set", "udp_mbps=2"]
    )
    assert rc == 2
    assert "same knob" in capsys.readouterr().err


def test_sweep_rejects_bad_jobs(capsys):
    assert main(["sweep", "churn", "--jobs", "0"]) == 2
    assert "--jobs must be >= 1" in capsys.readouterr().err


def test_sweep_help_lists_the_campaign_execution_flags(capsys):
    # The campaign CLI loads only for a sweep; its flags must still show.
    with pytest.raises(SystemExit) as exc:
        repro_main(["scenario", "sweep", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--jobs" in out
    assert "--queue" in out
