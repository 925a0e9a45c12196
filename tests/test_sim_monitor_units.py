"""Tests for the unit helpers."""

import pytest

from repro.sim import (
    throughput_mbps,
    us_from_ms,
    us_from_s,
    s_from_us,
    ms_from_us,
    mbps_from_bytes_per_us,
)


def test_unit_round_trips():
    assert us_from_ms(1.5) == 1500.0
    assert us_from_s(2.0) == 2_000_000.0
    assert s_from_us(500_000.0) == 0.5
    assert ms_from_us(2500.0) == 2.5


def test_throughput_mbps():
    # 1250 bytes in 1000 us = 10000 bits / 1000 us = 10 Mbps.
    assert throughput_mbps(1250, 1000.0) == pytest.approx(10.0)


def test_throughput_empty_interval_is_zero():
    assert throughput_mbps(1000, 0.0) == 0.0


def test_mbps_from_bytes_per_us():
    assert mbps_from_bytes_per_us(1.0) == 8.0
