"""Per-station leaky/token bucket in channel-occupancy microseconds.

The paper (Section 4): "TBR is based on the leaky bucket scheme.  The
fundamental unit or token used in the implementation is the channel
occupancy time in terms of micro-seconds."

Tokens may go negative: COMPLETEEVENT charges the *actual* cost of an
exchange after the fact, which can exceed the balance that made the
packet eligible.  The deficit is repaid by subsequent fills before the
station becomes eligible again — this is what bounds long-term usage.
"""

from __future__ import annotations


class TokenBucket:
    """Token state for one station."""

    __slots__ = (
        "station",
        "tokens_us",
        "depth_us",
        "rate",
        "spent_us",
        "filled_us",
        "spent_since_adjust_us",
        "window_start_us",
    )

    TIME_STATE = dict(
        clocks=("window_start_us",),
        counters=("spent_us",),
        exact={"filled_us": "fill_skipped"},
        phase={
            "tokens_us": "the steady balance orbits a bounded range below "
            "depth_us: the pre-jump value is depth-safe and phase-correct",
            "spent_since_adjust_us": "the window origin shifts instead; "
            "crediting this too would double-correct actual_rate",
        },
    )

    def __init__(
        self,
        station: str,
        *,
        rate: float,
        depth_us: float,
        initial_us: float = 0.0,
        now_us: float = 0.0,
    ) -> None:
        if depth_us <= 0:
            raise ValueError("bucket depth must be positive")
        if rate < 0:
            raise ValueError("token rate must be non-negative")
        self.station = station
        self.tokens_us = min(initial_us, depth_us)
        self.depth_us = depth_us
        self.rate = rate
        self.spent_us = 0.0
        self.filled_us = 0.0
        self.spent_since_adjust_us = 0.0
        self.window_start_us = now_us

    @property
    def eligible(self) -> bool:
        """A station may transmit while its balance is positive."""
        return self.tokens_us > 0.0

    def fill(self, elapsed_us: float) -> None:
        """FILLEVENT: accrue ``elapsed * rate`` tokens, capped at depth.

        NOTE: ``TbrScheduler._fill_event`` inlines this arithmetic (and
        the :attr:`eligible` test) for speed — keep them in lockstep.
        """
        if elapsed_us < 0:
            raise ValueError("elapsed must be non-negative")
        grant = elapsed_us * self.rate
        self.filled_us += grant
        self.tokens_us = min(self.tokens_us + grant, self.depth_us)

    def charge(self, airtime_us: float) -> None:
        """COMPLETEEVENT: pay for a finished exchange (may go negative)."""
        if airtime_us < 0:
            raise ValueError("airtime must be non-negative")
        self.tokens_us -= airtime_us
        self.spent_us += airtime_us
        self.spent_since_adjust_us += airtime_us

    def actual_rate(self, now_us: float) -> float:
        """Average spend rate (fraction of channel time) since the last
        adjustment window reset — the paper's ``actual_i``."""
        elapsed = now_us - self.window_start_us
        if elapsed <= 0:
            return 0.0
        return self.spent_since_adjust_us / elapsed

    def reset_window(self, now_us: float) -> None:
        """ADJUSTRATEEVENT epilogue: zero the per-window usage."""
        self.spent_since_adjust_us = 0.0
        self.window_start_us = now_us

    def fill_skipped(self, delta_us: float) -> None:
        """The fills a jump skipped are ``rate × Δ`` by construction,
        so they are credited exactly, not from a measured window."""
        self.filled_us += self.rate * delta_us
