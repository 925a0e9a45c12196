"""Tests for experiment utilities (rendering, runners)."""

import pytest

from repro.experiments.common import (
    fmt_frac,
    fmt_mbps,
    fmt_table,
    run_competing,
)


def test_fmt_table_alignment():
    out = fmt_table(["name", "value"], [["a", 1], ["longer", 22]])
    lines = out.splitlines()
    assert lines[0].startswith("name")
    assert "---" in lines[1]
    assert len({len(line) for line in lines}) == 1  # rectangular


def test_fmt_table_title():
    out = fmt_table(["x"], [["1"]], title="My Table")
    assert out.splitlines()[0] == "My Table"


def test_fmt_helpers():
    assert fmt_mbps(1.23456) == "1.235"
    assert fmt_frac(0.5) == "0.500"


def test_run_competing_accepts_dict_and_list():
    a = run_competing({"alpha": 11.0}, seconds=0.5, warmup_seconds=0.0)
    assert set(a.throughput_mbps) == {"alpha"}
    b = run_competing([11.0, 11.0], seconds=0.5, warmup_seconds=0.0)
    assert set(b.throughput_mbps) == {"n1", "n2"}


def test_run_competing_udp_transport():
    res = run_competing(
        [11.0], transport="udp", udp_rate_mbps=1.0, direction="down",
        seconds=1.0, warmup_seconds=0.0,
    )
    assert res.throughput_mbps["n1"] == pytest.approx(1.0, rel=0.15)


def test_run_competing_rejects_bad_transport():
    with pytest.raises(ValueError):
        run_competing([11.0], transport="sctp", seconds=0.1)


def test_run_competing_rejects_degenerate_measurement_window():
    # A non-positive measurement window would make every throughput and
    # occupancy figure a division by zero.
    with pytest.raises(ValueError, match="measurement window"):
        run_competing([11.0], seconds=0.0)
    with pytest.raises(ValueError, match="measurement window"):
        run_competing([11.0], seconds=-1.0, warmup_seconds=3.0)
    with pytest.raises(ValueError, match="warmup_seconds"):
        run_competing([11.0], seconds=1.0, warmup_seconds=-0.5)


def test_run_competing_allows_warmup_longer_than_measurement():
    # The windows are additive (warm up, then measure), so a warm-up
    # exceeding the measurement window is valid — the golden fig8/fig9
    # runs measure 1 s after a 3 s warm-up.
    res = run_competing([11.0], seconds=0.5, warmup_seconds=1.0)
    assert res.seconds == 0.5
    assert res.total_mbps > 0


def test_competing_result_total():
    res = run_competing([11.0, 11.0], seconds=0.5, warmup_seconds=0.0)
    assert res.total_mbps == pytest.approx(sum(res.throughput_mbps.values()))
    assert res.scheduler == "fifo"
