"""Tests for loss models and indoor propagation."""

import random

import pytest

from repro.channel import (
    BernoulliLoss,
    LogDistancePathLoss,
    NoLoss,
    PerLinkLoss,
    Position,
    RadioEnvironment,
    SnrLoss,
    distance,
)
from repro.mac.frames import Frame, FrameType


def frame(src="a", dst="b", size=1500, rate=11.0):
    return Frame(FrameType.DATA, src, dst, size, rate)


# ----------------------------------------------------------------------
# loss models
# ----------------------------------------------------------------------
def test_no_loss_never_loses():
    model = NoLoss()
    assert all(not model.is_lost(frame()) for _ in range(100))


def test_bernoulli_extremes():
    assert not BernoulliLoss(0.0).is_lost(frame())
    assert BernoulliLoss(1.0).is_lost(frame())


def test_bernoulli_rate_statistical():
    model = BernoulliLoss(0.3, rng=random.Random(1))
    losses = sum(model.is_lost(frame()) for _ in range(5000))
    assert 0.25 < losses / 5000 < 0.35


def test_bernoulli_validation():
    with pytest.raises(ValueError):
        BernoulliLoss(1.5)


def test_per_link_loss_uses_link_and_default():
    model = PerLinkLoss({("a", "b"): 1.0}, default=0.0)
    assert model.is_lost(frame("a", "b"))
    assert not model.is_lost(frame("b", "a"))


# ----------------------------------------------------------------------
# propagation
# ----------------------------------------------------------------------
def test_distance():
    assert distance(Position(0, 0), Position(3, 4)) == pytest.approx(5.0)


def test_log_distance_path_loss_increases():
    model = LogDistancePathLoss()
    losses = [model.path_loss_db(d) for d in (1.0, 2.0, 5.0, 20.0)]
    assert losses == sorted(losses)


def test_log_distance_exact():
    model = LogDistancePathLoss(reference_loss_db=40.0, exponent=3.0)
    assert model.path_loss_db(10.0) == pytest.approx(40.0 + 30.0)


def test_wall_attenuation_added():
    model = LogDistancePathLoss(wall_loss_db=5.0)
    assert model.path_loss_db(5.0, walls=2) - model.path_loss_db(5.0) == pytest.approx(10.0)


def test_below_reference_distance_clamped():
    model = LogDistancePathLoss()
    assert model.path_loss_db(0.01) == model.path_loss_db(1.0)


def test_validation():
    with pytest.raises(ValueError):
        LogDistancePathLoss(exponent=0.0)
    with pytest.raises(ValueError):
        LogDistancePathLoss(reference_distance_m=0.0)


def test_environment_snr():
    env = RadioEnvironment(tx_power_dbm=15.0, noise_floor_dbm=-92.0)
    env.place("ap", 0.0, 0.0)
    env.place("sta", 10.0, 0.0)
    loss = env.path_loss.path_loss_db(10.0)
    assert env.snr_db("ap", "sta") == pytest.approx(15.0 - loss + 92.0)


def test_environment_walls_and_shadowing_symmetric():
    env = RadioEnvironment()
    env.place("a", 0.0, 0.0)
    env.place("b", 5.0, 0.0)
    base = env.snr_db("a", "b")
    env.set_walls("a", "b", 2)
    walled = env.snr_db("a", "b")
    assert walled < base
    assert env.snr_db("b", "a") == pytest.approx(walled)
    env.set_shadowing("a", "b", 10.0)
    assert env.snr_db("a", "b") == pytest.approx(walled - 10.0)


def test_environment_missing_node_raises():
    env = RadioEnvironment()
    env.place("a", 0.0, 0.0)
    with pytest.raises(KeyError):
        env.snr_db("a", "ghost")


def test_snr_loss_model_tracks_environment():
    env = RadioEnvironment()
    for name in "abc":
        env.place(name, 0.0, 0.0)  # 67 dB at the reference distance: clean
    env.set_shadowing("a", "c", 80.0)  # -13 dB: dead
    model = SnrLoss(env, rng=random.Random(4))
    assert model.loss_probability(frame("a", "b")) < 0.01
    assert model.loss_probability(frame("a", "c")) > 0.99
