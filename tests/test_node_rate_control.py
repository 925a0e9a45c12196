"""Tests for rate controllers (fixed, ARF)."""

import pytest

from repro.node import ArfController, FixedRate


# ----------------------------------------------------------------------
# FixedRate
# ----------------------------------------------------------------------
def test_fixed_rate_default_and_table():
    ctrl = FixedRate(11.0, {"far": 1.0})
    assert ctrl.rate_for("near") == 11.0
    assert ctrl.rate_for("far") == 1.0
    ctrl.set_rate("near", 5.5)
    assert ctrl.rate_for("near") == 5.5


def test_fixed_rate_ignores_feedback():
    ctrl = FixedRate(11.0)
    for _ in range(100):
        ctrl.on_exchange("x", False, 1)
    assert ctrl.rate_for("x") == 11.0


# ----------------------------------------------------------------------
# ARF
# ----------------------------------------------------------------------
def fail(ctrl, dst, n=1):
    for _ in range(n):
        ctrl.on_exchange(dst, False, 1)


def succeed(ctrl, dst, n=1):
    for _ in range(n):
        ctrl.on_exchange(dst, True, 1)


def test_arf_starts_at_highest():
    assert ArfController().rate_for("x") == 11.0


def test_arf_start_rate_override():
    assert ArfController(start_mbps=2.0).rate_for("x") == 2.0


def test_arf_steps_down_after_two_failures():
    ctrl = ArfController(down_threshold=2)
    fail(ctrl, "x", 1)
    assert ctrl.rate_for("x") == 11.0  # one failure is not enough
    fail(ctrl, "x", 1)
    assert ctrl.rate_for("x") == 5.5


def test_arf_success_resets_failure_streak():
    ctrl = ArfController(down_threshold=2)
    fail(ctrl, "x", 1)
    succeed(ctrl, "x", 1)
    fail(ctrl, "x", 1)
    assert ctrl.rate_for("x") == 11.0


def test_arf_probes_up_after_success_run():
    ctrl = ArfController(start_mbps=5.5, up_threshold=10)
    succeed(ctrl, "x", 9)
    assert ctrl.rate_for("x") == 5.5
    succeed(ctrl, "x", 1)
    assert ctrl.rate_for("x") == 11.0


def test_arf_failed_probe_falls_straight_back():
    ctrl = ArfController(start_mbps=5.5, up_threshold=10, down_threshold=2)
    succeed(ctrl, "x", 10)  # probe to 11
    fail(ctrl, "x", 1)  # single failure on probe
    assert ctrl.rate_for("x") == 5.5


def test_arf_successful_probe_sticks():
    ctrl = ArfController(start_mbps=5.5, up_threshold=10)
    succeed(ctrl, "x", 10)
    succeed(ctrl, "x", 1)
    fail(ctrl, "x", 1)  # one ordinary failure after the probe survived
    assert ctrl.rate_for("x") == 11.0


def test_arf_floor_and_ceiling():
    ctrl = ArfController()
    fail(ctrl, "x", 50)
    assert ctrl.rate_for("x") == 1.0  # cannot go below the floor
    succeed(ctrl, "x", 500)
    assert ctrl.rate_for("x") == 11.0  # cannot exceed the ceiling


def test_arf_per_destination_state():
    ctrl = ArfController(down_threshold=2)
    fail(ctrl, "bad", 2)
    assert ctrl.rate_for("bad") == 5.5
    assert ctrl.rate_for("good") == 11.0


def test_arf_exchange_with_attempts_expands_history():
    # on_exchange(success=True, attempts=3) == 2 failures then success.
    ctrl = ArfController(down_threshold=2)
    ctrl.on_exchange("x", True, 3)
    assert ctrl.rate_for("x") == 5.5  # the two failures stepped it down


def test_arf_validation():
    with pytest.raises(ValueError):
        ArfController(rates=[])
    with pytest.raises(ValueError):
        ArfController(up_threshold=0)
    with pytest.raises(ValueError):
        ArfController(start_mbps=3.3)  # not in table


def test_arf_rate_change_counter():
    ctrl = ArfController(down_threshold=1)
    fail(ctrl, "x", 3)
    assert ctrl.rate_changes == 3
