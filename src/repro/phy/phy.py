"""PHY timing parameters and frame airtime computation.

One PHY family is modelled: 802.11b DSSS/CCK — PLCP preamble+header
sent at 1 Mbps (192 us with the long preamble), payload at the data
rate.

The MAC-level constants (slot, SIFS, CWmin/max) live here too because
they are properties of the PHY in the standard.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Sequence, Tuple

from repro.phy.rates import basic_rates_b

#: MAC data-frame overhead: 24-byte header + 4-byte FCS.
MAC_DATA_OVERHEAD_BYTES = 28
#: LLC/SNAP encapsulation carried in every data MSDU holding an IP packet.
LLC_SNAP_BYTES = 8
#: MAC ACK control frame size.
ACK_BYTES = 14


@dataclass(frozen=True)
class PhyParams:
    """Timing constants for one PHY configuration.

    ``plcp_us`` is the preamble+PLCP-header duration.
    """

    name: str
    slot_us: float
    sifs_us: float
    plcp_us: float
    cw_min: int
    cw_max: int
    basic_rates: Sequence[float] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        # Per-instance memo tables for the pure timing functions below.
        # They are *not* dataclass fields, so equality, hashing and repr
        # are untouched; ``object.__setattr__`` sidesteps frozen-ness.
        # Airtime is computed on every exchange and every EIFS lookup,
        # and the key spaces (PSDU size x rate) are tiny in practice.
        object.__setattr__(self, "_psdu_cache", {})
        object.__setattr__(self, "_ack_rate_cache", {})
        object.__setattr__(self, "_eifs_us", None)
        object.__setattr__(
            self, "_difs_us", self.sifs_us + 2.0 * self.slot_us
        )

    def __getstate__(self) -> Dict[str, object]:
        # Pickle only the declared fields: the airtime/EIFS memo tables
        # are per-process derived state, and shipping them into campaign
        # workers would both bloat the job payload and share one
        # instance's cache dict across forked jobs.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state: Dict[str, object]) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self.__post_init__()  # rebuild empty memo tables

    @property
    def difs_us(self) -> float:
        """DIFS = SIFS + 2 slots."""
        return self._difs_us

    def eifs_us(self) -> float:
        """EIFS = SIFS + DIFS + ACK airtime at the lowest basic rate."""
        cached = self._eifs_us
        if cached is None:
            cached = self.sifs_us + self._difs_us + ack_airtime_us(
                self, min(self.basic_rates)
            )
            object.__setattr__(self, "_eifs_us", cached)
        return cached


DOT11B_LONG_PREAMBLE = PhyParams(
    name="802.11b (long preamble)",
    slot_us=20.0,
    sifs_us=10.0,
    plcp_us=192.0,
    cw_min=31,
    cw_max=1023,
    basic_rates=tuple(basic_rates_b()),
)


def _psdu_airtime_us(phy: PhyParams, psdu_bytes: int, rate_mbps: float) -> float:
    """Airtime of a PSDU of ``psdu_bytes`` at ``rate_mbps`` on ``phy``.

    Memoized per PHY instance on ``(psdu_bytes, rate_mbps)`` — the
    function is pure and the MAC asks the same handful of questions
    millions of times per simulated minute.
    """
    cache: Dict[Tuple[int, float], float] = phy._psdu_cache
    key = (psdu_bytes, rate_mbps)
    cached = cache.get(key)
    if cached is not None:
        return cached
    if psdu_bytes < 0:
        raise ValueError("psdu_bytes must be non-negative")
    if rate_mbps <= 0:
        raise ValueError("rate must be positive")
    value = phy.plcp_us + 8.0 * psdu_bytes / rate_mbps
    cache[key] = value
    return value


def frame_airtime_us(
    phy: PhyParams,
    payload_bytes: int,
    rate_mbps: float,
    *,
    include_llc: bool = True,
) -> float:
    """Airtime of a unicast data frame carrying ``payload_bytes`` of MSDU.

    ``payload_bytes`` is the network-layer (IP) packet size.  The MAC
    header, FCS and (by default) LLC/SNAP encapsulation are added here.
    """
    if payload_bytes < 0:
        raise ValueError("payload_bytes must be non-negative")
    psdu = payload_bytes + MAC_DATA_OVERHEAD_BYTES
    if include_llc:
        psdu += LLC_SNAP_BYTES
    return _psdu_airtime_us(phy, psdu, rate_mbps)


def ack_airtime_us(phy: PhyParams, rate_mbps: float) -> float:
    """Airtime of a MAC ACK control frame at ``rate_mbps``."""
    return _psdu_airtime_us(phy, ACK_BYTES, rate_mbps)


def ack_rate_for(phy: PhyParams, data_rate_mbps: float) -> float:
    """Control-response rate: highest basic rate <= the data rate.

    Falls back to the lowest basic rate when the data rate is below every
    basic rate (cannot happen for standard-compliant rate sets, but keeps
    the function total).  Memoized per PHY instance.
    """
    cache: Dict[float, float] = phy._ack_rate_cache
    cached = cache.get(data_rate_mbps)
    if cached is not None:
        return cached
    candidates = [r for r in phy.basic_rates if r <= data_rate_mbps]
    value = max(candidates) if candidates else min(phy.basic_rates)
    cache[data_rate_mbps] = value
    return value


def exchange_airtime_us(
    phy: PhyParams, payload_bytes: int, rate_mbps: float, attempts: int = 1
) -> float:
    """Channel time of one data exchange without its contention idle.

    ``attempts`` × (DIFS + data airtime) + SIFS + the ACK at its control
    rate: TBR's per-exchange uplink charge, and the success term of the
    analytic baseline β in :mod:`repro.analysis.model`.
    """
    data = frame_airtime_us(phy, payload_bytes, rate_mbps)
    ack = ack_airtime_us(phy, ack_rate_for(phy, rate_mbps))
    return attempts * (phy.difs_us + data) + phy.sifs_us + ack
