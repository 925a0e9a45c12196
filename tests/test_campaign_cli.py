"""Tests for ``python -m repro campaign`` (and its cli.py routing)."""

import pytest

from repro.campaign.cli import main as campaign_main
from repro.cli import main as repro_main


def test_list_names_figures_tables_and_ablations(capsys):
    assert campaign_main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig1", "fig9", "table4", "abl-retry", "abl-bg"):
        assert name in out


def test_unknown_experiment_errors(capsys):
    assert campaign_main(["nonsense"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_duration_the_job_factory_rejects_is_a_usage_error(capsys):
    # Exit 2 with the one-line reason, not a ValueError traceback.
    assert campaign_main(
        ["fairness-outage", "--seconds", "1", "--no-cache"]
    ) == 2
    captured = capsys.readouterr()
    assert "fairness-outage: " in captured.err
    assert "phases must satisfy" in captured.err
    assert captured.out == ""


def test_flag_validation():
    with pytest.raises(SystemExit):
        campaign_main(["fig2", "--jobs", "0"])
    with pytest.raises(SystemExit):
        campaign_main(["fig2", "--seconds", "0"])


def test_small_campaign_runs_and_caches(tmp_path, capsys):
    args = [
        "fig2", "--jobs", "1", "--seconds", "0.5",
        "--cache-dir", str(tmp_path / "cache"),
    ]
    assert campaign_main(args) == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out
    assert "2 executed" in out
    # Re-run: same rendering, now entirely from the cache.
    assert campaign_main(args) == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out
    assert "0 executed, 2 cache hits" in out
    # --force recomputes despite the warm cache.
    assert campaign_main(args + ["--force"]) == 0
    assert "2 executed, 0 cache hits" in capsys.readouterr().out


def test_no_cache_leaves_no_directory(tmp_path, capsys):
    cache_dir = tmp_path / "never-created"
    rc = campaign_main(
        ["fig2", "--jobs", "1", "--seconds", "0.5", "--quiet",
         "--cache-dir", str(cache_dir), "--no-cache"]
    )
    assert rc == 0
    assert not cache_dir.exists()
    assert "Figure 2" in capsys.readouterr().out


def test_repro_cli_routes_campaign(tmp_path, capsys):
    rc = repro_main(
        ["campaign", "fig2", "--jobs", "1", "--seconds", "0.5", "--quiet",
         "--cache-dir", str(tmp_path / "cache")]
    )
    assert rc == 0
    assert "Figure 2" in capsys.readouterr().out


def test_repro_cli_list_mentions_campaign(capsys):
    assert repro_main(["list"]) == 0
    assert "campaign" in capsys.readouterr().out


# ----------------------------------------------------------------------
# fault tolerance at the CLI surface
# ----------------------------------------------------------------------
def test_quarantine_exit_code_and_report(tmp_path, monkeypatch, capsys):
    from repro.campaign.faults import FAULTS_ENV, Fault, FaultPlan

    # Fail every job permanently: nothing simulates, so this is fast.
    monkeypatch.setenv(
        FAULTS_ENV, FaultPlan((Fault("", 0, "fail"),)).to_json()
    )
    args = [
        "fig2", "--jobs", "2", "--seconds", "0.5", "--quiet",
        "--cache-dir", str(tmp_path / "cache"),
    ]
    assert campaign_main(args) == 1
    out = capsys.readouterr().out
    assert "[fig2: not rendered — job(s) quarantined]" in out
    assert "QUARANTINE (2 job(s))" in out
    assert "ValueError" in out
    assert "2 quarantined" in out

    # --partial: same campaign, same report, but a zero exit.
    assert campaign_main(args + ["--partial"]) == 0
    assert "QUARANTINE" in capsys.readouterr().out


def test_resume_after_complete_run_is_all_cache_hits(tmp_path, capsys):
    args = [
        "fig2", "--jobs", "1", "--seconds", "0.5", "--quiet",
        "--cache-dir", str(tmp_path / "cache"),
    ]
    assert campaign_main(args) == 0
    capsys.readouterr()
    assert campaign_main(args + ["--resume"]) == 0
    out = capsys.readouterr().out
    assert "0 executed, 2 cache hits" in out
    # The store is the whole checkpoint: no run manifest beside it.
    assert not (tmp_path / "cache" / "runs").exists()


def test_resume_replays_stored_quarantines_and_a_plain_run_retries(
    tmp_path, monkeypatch, capsys
):
    from repro.campaign.faults import FAULTS_ENV, Fault, FaultPlan

    cache_dir = tmp_path / "cache"
    args = [
        "fig2", "--jobs", "2", "--seconds", "0.5", "--quiet",
        "--cache-dir", str(cache_dir),
    ]
    monkeypatch.setenv(
        FAULTS_ENV, FaultPlan((Fault("", 0, "fail"),)).to_json()
    )
    assert campaign_main(args) == 1
    capsys.readouterr()
    assert len(list(cache_dir.glob("??/*.failed"))) == 2
    # --resume spends no attempt: both records are replayed as skips.
    assert campaign_main(args + ["--resume"]) == 1
    out = capsys.readouterr().out
    assert "0 executed" in out and "2 skipped" in out
    assert "QUARANTINE (2 job(s))" in out
    # A plain run attempts them again, and success replaces the records.
    monkeypatch.delenv(FAULTS_ENV)
    assert campaign_main(args) == 0
    assert "2 executed" in capsys.readouterr().out
    assert list(cache_dir.glob("??/*.failed")) == []
    assert len(list(cache_dir.glob("??/*.pkl"))) == 2
    assert not (cache_dir / "runs").exists()


def test_resume_without_cache_is_a_usage_error(capsys):
    assert campaign_main(["fig2", "--no-cache", "--resume"]) == 2
    assert "--resume needs the cache" in capsys.readouterr().err


def test_verify_cache_flags_and_purges_corruption(tmp_path, capsys):
    from repro.campaign.store import ResultStore

    cache_dir = str(tmp_path / "cache")
    cache = ResultStore(cache_dir)
    cache.put("ab" + "0" * 62, {"ok": True})
    cache.put("cd" + "0" * 62, {"ok": True})
    path = cache.path_for("ab" + "0" * 62)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))

    assert campaign_main(["verify-cache", "--cache-dir", cache_dir]) == 1
    out = capsys.readouterr().out
    assert "2 entrie(s)" in out and "1 ok" in out and "corrupt" in out

    rc = campaign_main(["verify-cache", "--cache-dir", cache_dir, "--purge"])
    assert rc == 1
    assert "purged 1 bad entrie(s)" in capsys.readouterr().out
    assert campaign_main(["verify-cache", "--cache-dir", cache_dir]) == 0


def test_timeout_and_retries_flag_validation():
    with pytest.raises(SystemExit):
        campaign_main(["fig2", "--timeout", "0"])
    with pytest.raises(SystemExit):
        campaign_main(["fig2", "--retries", "0"])
    with pytest.raises(SystemExit):
        campaign_main(["verify-cache", "fig2"])
