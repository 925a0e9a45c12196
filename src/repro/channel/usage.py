"""Per-station channel occupancy accounting.

The paper defines a node's channel occupancy time as the total time used
to transmit *and* receive its packets, including the data airtime, the
synchronous ACK, inter-frame spacings and every retransmission (Section
2.3 / 4.2).  The MAC reports each completed exchange here, tagged with
the *owning station* (for downlink frames the destination; for uplink
the source), so occupancy per competing node falls out directly — the
cell divides it by its measurement window to regenerate the right-hand
bars of the paper's Figures 2 and 3(b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.sim import Simulator


@dataclass
class UsageRecord:
    """One completed MAC exchange (possibly several retries)."""

    time: float
    station: str
    airtime_us: float


class ChannelUsageMonitor:
    """Accumulates per-station channel occupancy time."""

    #: A jump (``repro.sim.steady``) appends nothing to ``records``:
    #: there was no individual exchange to describe.
    TIME_STATE = dict(counters=("_occupancy_us",))

    def __init__(self, sim: Simulator, *, keep_records: bool = False) -> None:
        self.sim = sim
        self.keep_records = keep_records
        self.records: List[UsageRecord] = []
        self._occupancy_us: Dict[str, float] = {}

    def record_exchange(self, station: str, airtime_us: float) -> None:
        """Attribute ``airtime_us`` of channel time to ``station``."""
        if airtime_us < 0:
            raise ValueError("airtime must be non-negative")
        self._occupancy_us[station] = self._occupancy_us.get(station, 0.0) + airtime_us
        if self.keep_records:
            self.records.append(UsageRecord(self.sim.now, station, airtime_us))

    def reset(self) -> None:
        """Clear accumulated occupancy (e.g. after warm-up)."""
        self._occupancy_us.clear()
        self.records.clear()

    # ------------------------------------------------------------------
    def occupancy_us(self, station: str) -> float:
        return self._occupancy_us.get(station, 0.0)

    def occupancies_us(self) -> Dict[str, float]:
        """Snapshot of every station's accumulated occupancy time."""
        return dict(self._occupancy_us)
