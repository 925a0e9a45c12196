"""Tests for PHY rate tables, frame timing and error curves."""

import pytest
from hypothesis import given, strategies as st

from repro.phy import (
    DOT11B_LONG_PREAMBLE,
    DOT11B_RATES,
    ack_airtime_us,
    ack_rate_for,
    ber_for_rate,
    frame_airtime_us,
    frame_error_probability,
    per_from_ber,
    rate_by_mbps,
)
from repro.phy.phy import ACK_BYTES, LLC_SNAP_BYTES, MAC_DATA_OVERHEAD_BYTES


# ----------------------------------------------------------------------
# rate tables
# ----------------------------------------------------------------------
def test_dot11b_rates_present():
    assert [r.mbps for r in DOT11B_RATES] == [1.0, 2.0, 5.5, 11.0]


def test_rate_lookup():
    assert rate_by_mbps(5.5).modulation == "CCK5.5"


def test_rate_lookup_unknown_raises():
    with pytest.raises(ValueError):
        rate_by_mbps(3.0)


def test_min_snr_ordered_by_rate():
    snrs = [r.min_snr_db for r in DOT11B_RATES]
    assert snrs == sorted(snrs)


# ----------------------------------------------------------------------
# timing constants
# ----------------------------------------------------------------------
def test_difs_is_sifs_plus_two_slots():
    phy = DOT11B_LONG_PREAMBLE
    assert phy.difs_us == pytest.approx(10.0 + 2 * 20.0)


def test_eifs_includes_ack_at_lowest_basic():
    phy = DOT11B_LONG_PREAMBLE
    expected = 10.0 + 50.0 + ack_airtime_us(phy, 1.0)
    assert phy.eifs_us() == pytest.approx(expected)


# ----------------------------------------------------------------------
# frame airtime
# ----------------------------------------------------------------------
def test_data_airtime_dsss_exact():
    phy = DOT11B_LONG_PREAMBLE
    psdu = 1500 + MAC_DATA_OVERHEAD_BYTES + LLC_SNAP_BYTES
    expected = 192.0 + 8.0 * psdu / 11.0
    assert frame_airtime_us(phy, 1500, 11.0) == pytest.approx(expected)


def test_data_airtime_without_llc():
    phy = DOT11B_LONG_PREAMBLE
    with_llc = frame_airtime_us(phy, 100, 1.0, include_llc=True)
    without = frame_airtime_us(phy, 100, 1.0, include_llc=False)
    assert with_llc - without == pytest.approx(8.0 * LLC_SNAP_BYTES / 1.0)


def test_slower_rate_longer_airtime():
    phy = DOT11B_LONG_PREAMBLE
    times = [frame_airtime_us(phy, 1500, r.mbps) for r in DOT11B_RATES]
    assert times == sorted(times, reverse=True)


def test_ack_airtime():
    phy = DOT11B_LONG_PREAMBLE
    assert ack_airtime_us(phy, 2.0) == pytest.approx(192.0 + 8.0 * ACK_BYTES / 2.0)


def test_airtime_rejects_bad_inputs():
    phy = DOT11B_LONG_PREAMBLE
    with pytest.raises(ValueError):
        frame_airtime_us(phy, -1, 11.0)
    with pytest.raises(ValueError):
        frame_airtime_us(phy, 100, 0.0)


def test_ack_rate_selection_b():
    phy = DOT11B_LONG_PREAMBLE
    assert ack_rate_for(phy, 11.0) == 2.0
    assert ack_rate_for(phy, 5.5) == 2.0
    assert ack_rate_for(phy, 2.0) == 2.0
    assert ack_rate_for(phy, 1.0) == 1.0


# ----------------------------------------------------------------------
# error model
# ----------------------------------------------------------------------
def test_ber_decreases_with_snr():
    for rate in (1.0, 2.0, 5.5, 11.0):
        bers = [ber_for_rate(rate, snr) for snr in (-5.0, 0.0, 5.0, 10.0, 20.0)]
        assert bers == sorted(bers, reverse=True)


def test_faster_b_rates_need_more_snr():
    # At a fixed mid-range SNR, BER must increase with rate.
    bers = [ber_for_rate(r.mbps, 4.0) for r in DOT11B_RATES]
    assert bers == sorted(bers)


def test_per_from_ber_bounds():
    assert per_from_ber(0.0, 1500) == 0.0
    assert per_from_ber(0.5, 1500) == 1.0
    assert 0.0 < per_from_ber(1e-5, 1500) < 1.0


def test_per_from_ber_validation():
    with pytest.raises(ValueError):
        per_from_ber(-0.1, 100)
    with pytest.raises(ValueError):
        per_from_ber(1.5, 100)
    with pytest.raises(ValueError):
        per_from_ber(0.1, -1)


@given(
    st.floats(min_value=1e-9, max_value=0.4),
    st.integers(min_value=1, max_value=3000),
)
def test_per_monotone_in_frame_size(ber, nbytes):
    assert per_from_ber(ber, nbytes) <= per_from_ber(ber, nbytes + 100) + 1e-12


@given(st.floats(min_value=-10.0, max_value=40.0))
def test_per_always_a_probability(snr):
    for rate in (1.0, 11.0):
        per = frame_error_probability(rate, snr, 1500)
        assert 0.0 <= per <= 1.0
