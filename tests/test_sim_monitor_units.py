"""Tests for the unit helpers."""

import pytest

from repro.sim import throughput_mbps, us_from_s


def test_unit_round_trips():
    assert us_from_s(2.0) == 2_000_000.0


def test_throughput_mbps():
    # 1250 bytes in 1000 us = 10000 bits / 1000 us = 10 Mbps.
    assert throughput_mbps(1250, 1000.0) == pytest.approx(10.0)


def test_throughput_empty_interval_is_zero():
    assert throughput_mbps(1000, 0.0) == 0.0

