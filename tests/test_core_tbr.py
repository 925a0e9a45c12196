"""Tests for the TBR scheduler (Figure 6 event handlers)."""

from types import SimpleNamespace

import pytest

from repro.core import TbrConfig, TbrScheduler
from repro.mac import ExchangeReport
from repro.phy import DOT11B_LONG_PREAMBLE, exchange_airtime_us
from repro.sim import Simulator


class Pkt:
    def __init__(self, station, size=1500):
        self.station = station
        self.size_bytes = size
        self.mac_dst = None


class FakeMac:
    phy = DOT11B_LONG_PREAMBLE

    def __init__(self):
        self.notifications = 0

    def notify_pending(self):
        self.notifications += 1


def report(pkt, airtime_us, success=True, attempts=1):
    """The AP MAC's completion report for a downlink ``pkt``."""
    return ExchangeReport(
        packet=pkt, dst=pkt.station, success=success,
        attempts=attempts, airtime_us=airtime_us,
    )


def uplink(src, size=1500, rate_mbps=11.0, attempt=1):
    """The fields of a received uplink frame that TBR reads."""
    return SimpleNamespace(
        src=src, size_bytes=size, rate_mbps=rate_mbps, attempt=attempt
    )


def make_tbr(sim=None, **config_kwargs):
    sim = sim if sim is not None else Simulator(seed=1)
    tbr = TbrScheduler(sim, TbrConfig(**config_kwargs))
    tbr.bind(FakeMac())
    return sim, tbr


# ----------------------------------------------------------------------
# ASSOCIATEEVENT
# ----------------------------------------------------------------------
def test_associate_creates_bucket_with_equal_rates():
    sim, tbr = make_tbr()
    tbr.associate("a")
    assert tbr.token_rate("a") == pytest.approx(1.0)
    tbr.associate("b")
    assert tbr.token_rate("a") == pytest.approx(0.5)
    assert tbr.token_rate("b") == pytest.approx(0.5)


def test_associate_grants_initial_tokens():
    sim, tbr = make_tbr(initial_tokens_us=5_000.0)
    tbr.associate("a")
    assert tbr.tokens_us("a") == 5_000.0


def test_weighted_rates():
    sim, tbr = make_tbr(weights={"gold": 3.0})
    tbr.associate("gold")
    tbr.associate("plain")
    assert tbr.token_rate("gold") == pytest.approx(0.75)
    assert tbr.token_rate("plain") == pytest.approx(0.25)


def test_config_validation():
    with pytest.raises(ValueError):
        TbrConfig(fill_interval_us=0.0)
    with pytest.raises(ValueError):
        TbrConfig(bucket_depth_us=0.0)
    with pytest.raises(ValueError):
        TbrConfig(weights={"a": 0.0})
    with pytest.raises(ValueError, match="uplink_charge 'bogus'"):
        TbrConfig(uplink_charge="bogus")


# ----------------------------------------------------------------------
# FILLEVENT
# ----------------------------------------------------------------------
def test_fill_event_accrues_tokens():
    sim, tbr = make_tbr(fill_interval_us=10_000.0, initial_tokens_us=0.0)
    tbr.associate("a")
    tbr.associate("b")
    # Run just past the 50 ms fill so five fills have fired.
    sim.run(until=50 * 1000.0 + 1.0)
    # 50 ms at rate 0.5 -> 25 ms of channel time each.
    assert tbr.tokens_us("a") == pytest.approx(25_000.0)


def test_fill_event_wakes_mac_on_eligibility_edge():
    sim, tbr = make_tbr(fill_interval_us=10_000.0, initial_tokens_us=0.0)
    tbr.associate("a")
    tbr.enqueue(Pkt("a"))
    notifications_before = tbr.mac.notifications
    sim.run(until=15 * 1000.0)
    assert tbr.mac.notifications > notifications_before


# ----------------------------------------------------------------------
# MACTXEVENT (dequeue)
# ----------------------------------------------------------------------
def test_dequeue_only_positive_token_stations():
    sim, tbr = make_tbr(initial_tokens_us=1_000.0)
    tbr.associate("rich")
    tbr.associate("poor")
    tbr.buckets["poor"].charge(5_000.0)  # deep in debt
    tbr.enqueue(Pkt("rich"))
    tbr.enqueue(Pkt("poor"))
    first = tbr.dequeue()
    assert first.station == "rich"
    # Only the poor station remains; strict mode withholds it.
    assert tbr.dequeue() is None


def test_work_conserving_fallback_releases_least_indebted():
    sim, tbr = make_tbr(initial_tokens_us=0.0, work_conserving=True)
    tbr.associate("a")
    tbr.associate("b")
    tbr.buckets["a"].charge(10_000.0)
    tbr.buckets["b"].charge(2_000.0)
    tbr.enqueue(Pkt("a"))
    tbr.enqueue(Pkt("b"))
    pkt = tbr.dequeue()
    assert pkt.station == "b"  # least indebted
    assert tbr.borrowed_releases == 1


def test_round_robin_among_eligible():
    sim, tbr = make_tbr(initial_tokens_us=50_000.0)
    tbr.associate("a")
    tbr.associate("b")
    for _ in range(2):
        tbr.enqueue(Pkt("a"))
        tbr.enqueue(Pkt("b"))
    order = [tbr.dequeue().station for _ in range(4)]
    assert order == ["a", "b", "a", "b"]


# ----------------------------------------------------------------------
# COMPLETEEVENT
# ----------------------------------------------------------------------
def test_downlink_completion_charges_station():
    sim, tbr = make_tbr(initial_tokens_us=10_000.0)
    tbr.associate("a")
    pkt = tbr.enqueue(Pkt("a")) and tbr.dequeue()
    tbr.on_complete(report(pkt, 2_500.0))
    assert tbr.tokens_us("a") == pytest.approx(7_500.0)


def test_completion_without_a_packet_charges_nobody():
    sim, tbr = make_tbr(initial_tokens_us=10_000.0)
    tbr.associate("a")
    tbr.on_complete(ExchangeReport(
        packet=None, dst="a", success=True, attempts=1, airtime_us=2_500.0,
    ))
    assert tbr.tokens_us("a") == pytest.approx(10_000.0)


def test_uplink_completion_charges_station():
    sim, tbr = make_tbr(initial_tokens_us=10_000.0)
    tbr.associate("a")
    tbr.on_uplink_complete(uplink("a"), 4_000.0)
    assert tbr.tokens_us("a") == pytest.approx(6_000.0)


def test_uplink_from_unknown_station_auto_associates():
    sim, tbr = make_tbr()
    tbr.on_uplink_complete(uplink("newcomer"), 1_000.0)
    assert "newcomer" in tbr.buckets


@pytest.mark.parametrize("charge, attempts", [("one", 1), ("oracle", 3)])
def test_unpriced_uplink_frame_is_priced_by_uplink_charge(charge, attempts):
    sim, tbr = make_tbr(initial_tokens_us=10_000.0, uplink_charge=charge)
    tbr.associate("a")
    tbr.on_uplink_complete(uplink("a", attempt=3))
    price = exchange_airtime_us(
        DOT11B_LONG_PREAMBLE, 1500, 11.0, attempts=attempts
    )
    assert tbr.tokens_us("a") == pytest.approx(10_000.0 - price)


def test_failed_exchange_still_charged():
    # Failed packets also consume channel time (paper Section 4.2).
    sim, tbr = make_tbr(initial_tokens_us=10_000.0)
    tbr.associate("a")
    tbr.enqueue(Pkt("a"))
    pkt = tbr.dequeue()
    tbr.on_complete(report(pkt, 9_000.0, False, 7))
    assert tbr.tokens_us("a") == pytest.approx(1_000.0)


# ----------------------------------------------------------------------
# ADJUSTRATEEVENT integration
# ----------------------------------------------------------------------
def test_adjust_moves_rate_from_idle_to_busy():
    sim, tbr = make_tbr(
        adjust_interval_us=100_000.0, fill_interval_us=10_000.0,
        initial_tokens_us=0.0,
    )
    tbr.associate("busy")
    tbr.associate("idle")

    # Busy station constantly spends and stays backlogged; idle one
    # does nothing and its bucket caps out.
    def spend(elapsed):
        tbr.enqueue(Pkt("busy"))
        pkt = tbr.dequeue()
        if pkt is not None:
            tbr.on_complete(report(pkt, elapsed * 0.6))

    from repro.sim import PeriodicTimer

    PeriodicTimer(sim, 10_000.0, spend).start()
    sim.run(until=2000 * 1000.0)
    assert tbr.token_rate("busy") > 0.6
    assert tbr.token_rate("idle") < 0.4
    assert sum(b.rate for b in tbr.buckets.values()) == pytest.approx(1.0)


def test_adjust_disabled_keeps_rates():
    sim, tbr = make_tbr(adjust_interval_us=0)
    tbr.associate("a")
    tbr.associate("b")
    sim.run(until=500 * 1000.0)
    assert tbr.token_rate("a") == pytest.approx(0.5)


# ----------------------------------------------------------------------
# client notification
# ----------------------------------------------------------------------
def test_defer_hint_only_when_enabled_and_starved():
    sim, tbr = make_tbr(notify_clients=True, defer_hint_us=7_000.0,
                        initial_tokens_us=1_000.0)
    tbr.associate("a")
    assert tbr.defer_hint_for("a") is None  # tokens positive
    tbr.buckets["a"].charge(2_000.0)
    assert tbr.defer_hint_for("a") == 7_000.0

    sim2, tbr2 = make_tbr(notify_clients=False)
    tbr2.associate("a")
    tbr2.buckets["a"].charge(2_000.0)
    assert tbr2.defer_hint_for("a") is None


def test_station_starved():
    sim, tbr = make_tbr(initial_tokens_us=100.0)
    tbr.associate("a")
    assert not tbr.station_starved("a")
    tbr.buckets["a"].charge(200.0)
    assert tbr.station_starved("a")


def test_stop_cancels_timers():
    sim, tbr = make_tbr()
    tbr.associate("a")
    tbr.stop()
    pending_before = sim.pending_count()
    sim.run(until=100 * 1000.0)
    # No timer kept re-arming itself.
    assert sim.pending_count() <= pending_before
