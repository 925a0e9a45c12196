"""The trace record format shared by capture, synthesis and analysis."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TraceRecord:
    """One sniffed data frame.

    ``station`` is the client the frame belongs to (uplink source or
    downlink destination) — the unit of the paper's per-user analyses.
    ``rate_mbps`` may be 0.0 when unknown (the Dartmouth trace lacks
    rates; the paper notes this and analyzes it by throughput only).
    """

    time_us: float
    station: str
    size_bytes: int
    rate_mbps: float
    direction: str  # "up" | "down"
    retry: bool = False
