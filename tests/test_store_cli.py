"""CLI surface of the store/queue layers: --missing-only, query,
worker, verify-cache, --queue spool.

The acceptance bar for ``--missing-only``: a half-warm sweep must
*report* the cached/missing split and *execute* exactly the missing
half, proven by the executor's own stats line.
"""

import re

import pytest

from repro.campaign.cli import main as campaign_main
from repro.scenario.cli import main as scenario_main

CHEAP = ["--set", "seconds=0.5", "--jobs", "1", "--quiet"]


def run_sweep(capsys, *extra, axis="seed=1,2"):
    args = ["sweep", "churn", "--axis", axis] + CHEAP + list(extra)
    rc = scenario_main(args)
    captured = capsys.readouterr()
    return rc, captured.out + captured.err


# ----------------------------------------------------------------------
# --missing-only (scenario sweep)
# ----------------------------------------------------------------------
def test_half_warm_sweep_runs_exactly_the_missing_half(tmp_path, capsys):
    cache = ["--cache-dir", str(tmp_path / "store")]
    # Warm half of a 4-point sweep.
    rc, out = run_sweep(capsys, *cache, axis="seed=1,2")
    assert rc == 0 and "2 executed" in out
    # The half-warm sweep reports the split and runs only the rest.
    rc, out = run_sweep(capsys, *cache, "--missing-only",
                        axis="seed=1,2,3,4")
    assert rc == 0
    assert "plan: 2 cached, 2 missing of 4 job(s)" in out
    assert re.search(r"\b2 executed, 0 cache hits", out)
    # Fill-the-store mode renders nothing.
    assert "Scenario churn" not in out
    # Fully warm now: nothing to do, exit 0.
    rc, out = run_sweep(capsys, *cache, "--missing-only",
                        axis="seed=1,2,3,4")
    assert rc == 0
    assert "plan: 4 cached, 0 missing of 4 job(s)" in out
    assert "nothing to execute" in out


def test_missing_only_requires_the_store(tmp_path, capsys):
    rc, out = run_sweep(
        capsys, "--cache-dir", str(tmp_path / "s"), "--missing-only",
        "--no-cache",
    )
    assert rc == 2
    assert "--missing-only needs the result store" in out


# ----------------------------------------------------------------------
# --missing-only (campaign)
# ----------------------------------------------------------------------
def test_campaign_missing_only(tmp_path, capsys):
    cache = ["--cache-dir", str(tmp_path / "store")]
    args = ["fig2", "--jobs", "1", "--seconds", "0.5", "--quiet"] + cache
    assert campaign_main(args) == 0
    capsys.readouterr()
    assert campaign_main(args + ["--missing-only"]) == 0
    out = capsys.readouterr().out
    assert "plan: 2 cached, 0 missing" in out
    assert "nothing to execute" in out


# ----------------------------------------------------------------------
# repro campaign query
# ----------------------------------------------------------------------
def test_query_lists_store_rows(tmp_path, capsys):
    store = str(tmp_path / "store")
    assert campaign_main(
        ["fig2", "--jobs", "1", "--seconds", "0.5", "--quiet",
         "--cache-dir", store]
    ) == 0
    capsys.readouterr()
    assert campaign_main(["query", "--cache-dir", store]) == 0
    out = capsys.readouterr().out
    assert "2 entrie(s)" in out
    assert "fig2" in out
    # Filters narrow and digest prefixes resolve.
    assert campaign_main(
        ["query", "--cache-dir", store, "--experiment", "nonesuch"]
    ) == 0
    assert "0 entrie(s)" in capsys.readouterr().out
    digest = None
    assert campaign_main(["query", "--cache-dir", store]) == 0
    for line in capsys.readouterr().out.splitlines():
        match = re.match(r"^([0-9a-f]{16})\s", line)
        if match:
            digest = match.group(1)
            break
    assert digest is not None
    assert campaign_main(
        ["query", "--cache-dir", store, "--digest", digest[:8], "--stat"]
    ) == 0
    out = capsys.readouterr().out
    assert "size" in out or "bytes" in out


# ----------------------------------------------------------------------
# verify-cache: the checksum covers the metadata line too
# ----------------------------------------------------------------------
def test_verify_cache_flags_a_damaged_meta_line(tmp_path, capsys):
    from repro.campaign.store import ResultStore

    store_dir = str(tmp_path / "store")
    args = ["fig2", "--jobs", "1", "--seconds", "0.5", "--quiet",
            "--cache-dir", store_dir]
    assert campaign_main(args) == 0
    capsys.readouterr()
    verify = ["verify-cache", "--cache-dir", store_dir]
    assert campaign_main(verify) == 0
    assert "2 entrie(s)" in capsys.readouterr().out
    # One flipped byte inside the metadata line, payload untouched.
    store = ResultStore(store_dir)
    path = store.path_for(store.entry_digests()[0])
    blob = bytearray(path.read_bytes())
    blob[blob.index(b'"experiment": "fig') + len('"experiment": "f')] ^= 0x01
    path.write_bytes(bytes(blob))
    assert campaign_main(verify) == 1
    out = capsys.readouterr().out
    assert "1 ok" in out and "checksum mismatch" in out
    assert "index" not in out
    assert campaign_main(verify + ["--purge"]) == 1
    assert "purged 1 bad entrie(s)" in capsys.readouterr().out
    assert campaign_main(verify) == 0
    capsys.readouterr()
    assert campaign_main(args) == 0
    assert re.search(r"\b1 executed", capsys.readouterr().out)
    with pytest.raises(SystemExit):  # the index is gone, and its flag
        campaign_main(verify + ["--reindex"])


# ----------------------------------------------------------------------
# spool backend through the CLIs
# ----------------------------------------------------------------------
def test_sweep_queue_spool_validates_flags(tmp_path, capsys):
    rc, out = run_sweep(
        capsys, "--cache-dir", str(tmp_path / "s"), "--queue", "spool"
    )
    assert rc == 2
    assert "--queue spool requires --spool-dir" in out


def test_sweep_through_spool_backend(tmp_path, capsys):
    cache = ["--cache-dir", str(tmp_path / "store")]
    rc, out = run_sweep(
        capsys, *cache, "--queue", "spool",
        "--spool-dir", str(tmp_path / "spool"), "--spool-workers", "2",
        axis="seed=1,2",
    )
    assert rc == 0
    assert "2 executed" in out
    assert "Scenario churn" in out
    # Warm rerun through the pool path sees the spool-written entries.
    rc, out = run_sweep(capsys, *cache, axis="seed=1,2")
    assert rc == 0
    assert "0 executed, 2 cache hits" in out


def test_worker_cli_drains_a_prepared_spool(tmp_path, capsys):
    from repro.campaign import queue as q
    from repro.campaign.job import make_job
    from repro.campaign.policy import RetryPolicy
    from repro.campaign.store import ResultStore

    store = ResultStore(tmp_path / "store")
    cfg = q.SpoolConfig(
        store_root=str(store.root),
        retry=RetryPolicy(max_attempts=2, backoff_base_s=0.01),
    )
    jobs = [
        make_job("cli-test", f"k{i}", "repro.campaign.faults:echo",
                 {"value": i})
        for i in range(3)
    ]
    q.enqueue(tmp_path / "spool", cfg, [(j.digest, j) for j in jobs])
    rc = campaign_main(
        ["worker", "--spool-dir", str(tmp_path / "spool"),
         "--idle-exit", "0.1", "--quiet"]
    )
    assert rc == 0
    assert "processed 3 claim(s)" in capsys.readouterr().out
    assert all(store.contains(j.digest) for j in jobs)
