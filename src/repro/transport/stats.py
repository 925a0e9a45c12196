"""Per-flow delivery statistics."""

from __future__ import annotations

import math
from typing import List, Optional

from repro.sim import Simulator, throughput_mbps


class FlowStats:
    """Receiver-side goodput, latency and task-completion bookkeeping."""

    TIME_STATE = dict(
        clocks=("last_delivery_us",),
        counters=("bytes_delivered", "segments_delivered"),
        phase={
            "delays_us": "a sample set, not a sum: a jump adds no samples",
            "_origin": "stays put: skipped time counts as measured",
        },
    )

    def __init__(self, sim: Simulator, name: str = "flow") -> None:
        self.sim = sim
        self.name = name
        self.bytes_delivered = 0
        self.segments_delivered = 0
        self.first_delivery_us: Optional[float] = None
        self.last_delivery_us: Optional[float] = None
        self.completed_us: Optional[float] = None
        self.delays_us: List[float] = []
        self._origin = sim.now

    def on_deliver(self, nbytes: int) -> None:
        now = self.sim.now
        if self.first_delivery_us is None:
            self.first_delivery_us = now
        self.last_delivery_us = now
        self.bytes_delivered += nbytes
        self.segments_delivered += 1

    def on_delay(self, delay_us: float) -> None:
        """Record one end-to-end packet delay sample."""
        if delay_us < 0:
            raise ValueError("delay must be non-negative")
        self.delays_us.append(delay_us)

    def mean_delay_us(self) -> float:
        if not self.delays_us:
            return 0.0
        return sum(self.delays_us) / len(self.delays_us)

    def delay_percentile_us(self, percentile: float) -> float:
        """Empirical delay percentile (e.g. 50, 95, 99)."""
        if not 0.0 <= percentile <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if not self.delays_us:
            return 0.0
        ordered = sorted(self.delays_us)
        rank = percentile / 100.0 * (len(ordered) - 1)
        low = math.floor(rank)
        high = math.ceil(rank)
        if low == high:
            return ordered[low]
        frac = rank - low
        return ordered[low] * (1 - frac) + ordered[high] * frac

    def mark_complete(self) -> None:
        """Record task completion (TaskApp done and fully acked)."""
        if self.completed_us is None:
            self.completed_us = self.sim.now

    @property
    def completed(self) -> bool:
        return self.completed_us is not None

    def completion_time_us(self) -> Optional[float]:
        if self.completed_us is None:
            return None
        return self.completed_us - self._origin

    def throughput_mbps(self, elapsed_us: Optional[float] = None) -> float:
        """Average goodput since construction (or over ``elapsed_us``)."""
        if elapsed_us is None:
            elapsed_us = self.sim.now - self._origin
        return throughput_mbps(self.bytes_delivered, elapsed_us)

    def reset(self) -> None:
        """Zero all accumulators (end of warm-up)."""
        self.bytes_delivered = 0
        self.segments_delivered = 0
        self.first_delivery_us = None
        self.last_delivery_us = None
        self.delays_us.clear()
        self._origin = self.sim.now
