"""SNR -> BER -> packet-error-rate curves for 802.11b modulations.

These follow the standard textbook expressions (DBPSK/DQPSK and CCK
approximations) at the level of fidelity common in network simulators:
the goal is that packet error rate falls off a cliff a few dB around
each rate's sensitivity point, which is what drives automatic rate
adaptation behaviour (the paper's EXP-1 reproduction).
"""

from __future__ import annotations

import math

from repro.phy.rates import Dot11Rate, rate_by_mbps


def _q_function(x: float) -> float:
    """Gaussian tail probability Q(x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def ber_for_rate(rate_mbps: float, snr_db: float) -> float:
    """Bit error rate at ``snr_db`` for the modulation of ``rate_mbps``.

    SNR is interpreted as Eb/N0-equivalent per-bit SNR (spreading gain
    folded in).  The curves are monotone decreasing in SNR and ordered
    by rate (faster rates need more SNR), which is all downstream code
    relies on.
    """
    return _ber_dsss(rate_by_mbps(rate_mbps), 10.0 ** (snr_db / 10.0))


def _ber_dsss(rate: Dot11Rate, snr: float) -> float:
    # Spreading gain: 11-chip Barker for 1/2 Mbps, 8-chip CCK for 5.5/11.
    if rate.mbps == 1.0:
        # DBPSK with 11x processing gain.
        return 0.5 * math.exp(-max(snr * 11.0, 0.0))
    if rate.mbps == 2.0:
        # DQPSK with 5.5x effective gain.
        return 0.5 * math.exp(-max(snr * 5.5, 0.0))
    if rate.mbps == 5.5:
        # CCK-5.5 approximation (Q-function with modest gain).
        return _q_function(math.sqrt(max(snr * 4.0, 0.0)))
    # CCK-11.
    return _q_function(math.sqrt(max(snr * 2.0, 0.0)))


def per_from_ber(ber: float, frame_bytes: int) -> float:
    """Packet error rate for an independent-bit-error channel."""
    if not 0.0 <= ber <= 1.0:
        raise ValueError(f"BER must be in [0, 1], got {ber!r}")
    if frame_bytes < 0:
        raise ValueError("frame_bytes must be non-negative")
    bits = 8 * frame_bytes
    if ber == 0.0 or bits == 0:
        return 0.0
    if ber >= 0.5:
        return 1.0
    # log1p for numerical stability with tiny BERs and long frames.
    return 1.0 - math.exp(bits * math.log1p(-ber))


def frame_error_probability(rate_mbps: float, snr_db: float, frame_bytes: int) -> float:
    """PER of a ``frame_bytes`` frame at ``rate_mbps`` under ``snr_db``."""
    return per_from_ber(ber_for_rate(rate_mbps, snr_db), frame_bytes)
