"""Automatic rate control.

The paper (Section 1) notes that vendors implement automatic rate
selection — ARF-style "step down after consecutive failures, probe up
after consecutive successes" (Kamerman & Monteban's WaveLAN-II scheme,
the paper's reference [16]) — and that users may also pin rates
manually.  Both are provided.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


class RateController:
    """Interface: per-destination transmit rate selection."""

    def rate_for(self, dst: str) -> float:
        raise NotImplementedError

    def on_exchange(self, dst: str, success: bool, attempts: int) -> None:
        """Feedback after each MAC exchange (attempts >= 1)."""


class FixedRate(RateController):
    """Manually pinned rates (the paper's controlled experiments)."""

    def __init__(self, default_mbps: float = 11.0, table: Optional[Dict[str, float]] = None) -> None:
        self.default_mbps = default_mbps
        self.table: Dict[str, float] = dict(table or {})

    def set_rate(self, dst: str, mbps: float) -> None:
        self.table[dst] = mbps

    def rate_for(self, dst: str) -> float:
        return self.table.get(dst, self.default_mbps)


@dataclass
class _ArfState:
    rate_index: int
    consecutive_failures: int = 0
    consecutive_successes: int = 0
    probing: bool = False


class ArfController(RateController):
    """Automatic Rate Fallback.

    Steps down one rate after ``down_threshold`` consecutive failed
    transmissions; steps up (a probe) after ``up_threshold`` consecutive
    successes; a failure on the probe's first exchange steps straight
    back down.
    """

    def __init__(
        self,
        rates: Optional[Sequence[float]] = None,
        *,
        start_mbps: Optional[float] = None,
        up_threshold: int = 10,
        down_threshold: int = 2,
    ) -> None:
        from repro.phy.rates import DOT11B_RATES

        self.rates: List[float] = sorted(
            rates if rates is not None else [r.mbps for r in DOT11B_RATES]
        )
        if not self.rates:
            raise ValueError("need at least one rate")
        if up_threshold < 1 or down_threshold < 1:
            raise ValueError("thresholds must be >= 1")
        self.up_threshold = up_threshold
        self.down_threshold = down_threshold
        if start_mbps is None:
            self._start_index = len(self.rates) - 1
        else:
            self._start_index = self.rates.index(start_mbps)
        self._state: Dict[str, _ArfState] = {}
        self.rate_changes = 0

    def _get(self, dst: str) -> _ArfState:
        state = self._state.get(dst)
        if state is None:
            state = _ArfState(self._start_index)
            self._state[dst] = state
        return state

    def rate_for(self, dst: str) -> float:
        return self.rates[self._get(dst).rate_index]

    def on_exchange(self, dst: str, success: bool, attempts: int) -> None:
        state = self._get(dst)
        failures = attempts - 1 if success else attempts
        # Process the per-attempt history: failures first, then the
        # terminal success (if any).
        for _ in range(failures):
            self._one_failure(state)
        if success:
            self._one_success(state)

    def _one_failure(self, state: _ArfState) -> None:
        state.consecutive_successes = 0
        if state.probing:
            # Probe failed: fall straight back.
            state.probing = False
            self._step_down(state)
            state.consecutive_failures = 0
            return
        state.consecutive_failures += 1
        if state.consecutive_failures >= self.down_threshold:
            self._step_down(state)
            state.consecutive_failures = 0

    def _one_success(self, state: _ArfState) -> None:
        state.consecutive_failures = 0
        state.probing = False
        state.consecutive_successes += 1
        if state.consecutive_successes >= self.up_threshold:
            state.consecutive_successes = 0
            if state.rate_index < len(self.rates) - 1:
                state.rate_index += 1
                state.probing = True
                self.rate_changes += 1

    def _step_down(self, state: _ArfState) -> None:
        if state.rate_index > 0:
            state.rate_index -= 1
            self.rate_changes += 1
