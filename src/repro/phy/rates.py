"""802.11b data-rate table.

Rates are identified by their nominal Mbps value; because the simulator's
time unit is the microsecond, a rate of ``d`` Mbps transmits exactly
``d`` bits per microsecond.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence


@dataclass(frozen=True)
class Dot11Rate:
    """One PHY data rate.

    Attributes:
        mbps: nominal data rate in Mbps (== bits per microsecond).
        modulation: human-readable modulation name.
        min_snr_db: SNR (dB) above which this rate sustains a low packet
            error rate.  Values follow common simulator practice
            (e.g. ns-2 / Qualnet 802.11b curves).
    """

    mbps: float
    modulation: str
    min_snr_db: float


DOT11B_RATES: List[Dot11Rate] = [
    Dot11Rate(1.0, "DBPSK", 1.0),
    Dot11Rate(2.0, "DQPSK", 4.0),
    Dot11Rate(5.5, "CCK5.5", 7.0),
    Dot11Rate(11.0, "CCK11", 10.0),
]

_ALL_RATES = {r.mbps: r for r in DOT11B_RATES}


def rate_by_mbps(mbps: float) -> Dot11Rate:
    """Look up a rate object by its Mbps value."""
    try:
        return _ALL_RATES[float(mbps)]
    except KeyError:
        valid = sorted(_ALL_RATES)
        raise ValueError(f"unknown 802.11 rate {mbps!r}; valid: {valid}") from None


def basic_rates_b() -> Sequence[float]:
    """The 802.11b basic (mandatory) rate set used for control frames."""
    return (1.0, 2.0)
