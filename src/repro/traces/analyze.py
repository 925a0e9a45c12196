"""The paper's trace analyses (Section 3).

* Figure 1: fraction of data bytes carried at each PHY rate;
* Figure 5: for every "busy" 1-second interval (total throughput above
  a threshold, the paper uses 4 Mbps ~ 80 % of TCP saturation), the
  share of bytes carried by the heaviest user of that interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

from repro.traces.records import TraceRecord

#: Width of one busy-interval bucket: the paper's 1-second intervals.
US_PER_SECOND = 1_000_000.0


def bytes_by_rate(records: Iterable[TraceRecord]) -> Dict[float, int]:
    """Total data bytes carried at each PHY rate."""
    out: Dict[float, int] = {}
    for r in records:
        out[r.rate_mbps] = out.get(r.rate_mbps, 0) + r.size_bytes
    return out


def rate_fractions(records: Iterable[TraceRecord]) -> Dict[float, float]:
    """Figure 1's statistic: fraction of bytes per rate."""
    totals = bytes_by_rate(records)
    grand = sum(totals.values())
    if grand == 0:
        return {}
    return {rate: b / grand for rate, b in sorted(totals.items())}


@dataclass(frozen=True)
class BusyInterval:
    """One interval whose total throughput exceeded the busy threshold."""

    index: int
    start_us: float
    total_bytes: int
    per_station_bytes: Dict[str, int]

    @property
    def throughput_mbps(self) -> float:
        return self.total_bytes * 8.0 / US_PER_SECOND

    @property
    def heaviest_station(self) -> str:
        return max(self.per_station_bytes, key=self.per_station_bytes.get)

    @property
    def heaviest_fraction(self) -> float:
        if self.total_bytes == 0:
            return 0.0
        return self.per_station_bytes[self.heaviest_station] / self.total_bytes

    @property
    def active_stations(self) -> int:
        return sum(1 for b in self.per_station_bytes.values() if b > 0)


def busy_intervals(
    records: Sequence[TraceRecord],
    *,
    threshold_mbps: float = 4.0,
) -> List[BusyInterval]:
    """Find intervals whose total data throughput exceeds the threshold.

    The paper conservatively defines busy 1-second intervals as those
    with total AP throughput above 4 Mbps (80 % of the commonly observed
    11 Mbps TCP saturation throughput).
    """
    buckets: Dict[int, Dict[str, int]] = {}
    for r in records:
        idx = int(r.time_us // US_PER_SECOND)
        per_station = buckets.setdefault(idx, {})
        per_station[r.station] = per_station.get(r.station, 0) + r.size_bytes

    threshold_bytes = threshold_mbps * US_PER_SECOND / 8.0
    result: List[BusyInterval] = []
    for idx in sorted(buckets):
        per_station = buckets[idx]
        total = sum(per_station.values())
        if total >= threshold_bytes:
            result.append(
                BusyInterval(
                    index=idx,
                    start_us=idx * US_PER_SECOND,
                    total_bytes=total,
                    per_station_bytes=dict(per_station),
                )
            )
    return result


def heaviest_user_fractions(
    records: Sequence[TraceRecord],
    *,
    threshold_mbps: float = 4.0,
) -> List[float]:
    """Figure 5's series: heaviest user's byte share per busy interval."""
    return [
        interval.heaviest_fraction
        for interval in busy_intervals(records, threshold_mbps=threshold_mbps)
    ]
