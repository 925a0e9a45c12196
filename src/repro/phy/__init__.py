"""802.11 PHY timing and error models.

``repro.phy`` knows how long frames occupy the air and how likely they
are to be corrupted at a given SNR.  It is purely computational (no
simulator state), which makes it easy to test exhaustively and to share
between the live MAC simulation and the analytic model in
``repro.analysis``.
"""

from repro.phy.rates import (
    Dot11Rate,
    DOT11B_RATES,
    rate_by_mbps,
    basic_rates_b,
)
from repro.phy.phy import (
    PhyParams,
    DOT11B_LONG_PREAMBLE,
    frame_airtime_us,
    ack_airtime_us,
    ack_rate_for,
    exchange_airtime_us,
)
from repro.phy.modulation import (
    ber_for_rate,
    per_from_ber,
    frame_error_probability,
)

__all__ = [
    "Dot11Rate",
    "DOT11B_RATES",
    "rate_by_mbps",
    "basic_rates_b",
    "PhyParams",
    "DOT11B_LONG_PREAMBLE",
    "frame_airtime_us",
    "ack_airtime_us",
    "ack_rate_for",
    "exchange_airtime_us",
    "ber_for_rate",
    "per_from_ber",
    "frame_error_probability",
]
