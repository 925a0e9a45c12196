"""Per-station channel occupancy accounting.

The paper defines a node's channel occupancy time as the total time used
to transmit *and* receive its packets, including the data airtime, the
synchronous ACK, inter-frame spacings and every retransmission (Section
2.3 / 4.2).  The MAC reports each completed exchange here, tagged with
the *owning station* (for downlink frames the destination; for uplink
the source), so occupancy fractions per competing node fall out
directly — this regenerates the right-hand bars of the paper's Figures
2 and 3(b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.sim import Simulator


@dataclass
class UsageRecord:
    """One completed MAC exchange (possibly several retries)."""

    time: float
    station: str
    airtime_us: float
    attempts: int
    success: bool
    payload_bytes: int
    rate_mbps: float
    direction: str  # "up" | "down"


class ChannelUsageMonitor:
    """Accumulates per-station channel occupancy time."""

    #: A jump (``repro.sim.steady``) appends nothing to ``records``:
    #: there was no individual exchange to describe.
    TIME_STATE = dict(
        counters=("_occupancy_us",),
        phase={"_origin": "stays put: skipped time counts as measured"},
    )

    def __init__(self, sim: Simulator, *, keep_records: bool = False) -> None:
        self.sim = sim
        self.keep_records = keep_records
        self.records: List[UsageRecord] = []
        self._occupancy_us: Dict[str, float] = {}
        self._origin = sim.now

    def record_exchange(
        self,
        station: str,
        airtime_us: float,
        *,
        attempts: int = 1,
        success: bool = True,
        payload_bytes: int = 0,
        rate_mbps: float = 0.0,
        direction: str = "up",
    ) -> None:
        """Attribute ``airtime_us`` of channel time to ``station``."""
        if airtime_us < 0:
            raise ValueError("airtime must be non-negative")
        self._occupancy_us[station] = self._occupancy_us.get(station, 0.0) + airtime_us
        if self.keep_records:
            self.records.append(
                UsageRecord(
                    time=self.sim.now,
                    station=station,
                    airtime_us=airtime_us,
                    attempts=attempts,
                    success=success,
                    payload_bytes=payload_bytes,
                    rate_mbps=rate_mbps,
                    direction=direction,
                )
            )

    def reset(self) -> None:
        """Clear accumulated occupancy (e.g. after warm-up)."""
        self._occupancy_us.clear()
        self.records.clear()
        self._origin = self.sim.now

    # ------------------------------------------------------------------
    def occupancy_us(self, station: str) -> float:
        return self._occupancy_us.get(station, 0.0)

    def total_occupancy_us(self) -> float:
        return sum(self._occupancy_us.values())

    def occupancies_us(self) -> Dict[str, float]:
        """Snapshot of every station's accumulated occupancy time."""
        return dict(self._occupancy_us)

    def stations(self) -> List[str]:
        return sorted(self._occupancy_us)

    def fraction_of_time(self, station: str, elapsed_us: Optional[float] = None) -> float:
        """Occupancy as a fraction of wall-clock simulation time."""
        if elapsed_us is None:
            elapsed_us = self.sim.now - self._origin
        if elapsed_us <= 0:
            return 0.0
        return self._occupancy_us.get(station, 0.0) / elapsed_us

    def fraction_of_busy(self, station: str) -> float:
        """Occupancy as a fraction of the summed attributed airtime."""
        total = self.total_occupancy_us()
        if total <= 0:
            return 0.0
        return self._occupancy_us.get(station, 0.0) / total

    def fractions(self) -> Dict[str, float]:
        """All stations' shares of the attributed airtime."""
        return {s: self.fraction_of_busy(s) for s in self.stations()}
