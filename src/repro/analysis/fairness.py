"""Fairness measures.

The paper's fairness measure between equal-priority nodes i and j over
an interval is |φ_i - φ_j| where φ is the achieved share of the chosen
resource (throughput for RF, channel time for TF).  Jain's index
(the paper's reference [14]) summarizes n-node allocations in [1/n, 1].
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Union

Values = Union[Sequence[float], Dict[str, float]]


def _as_list(values: Values) -> List[float]:
    if isinstance(values, dict):
        return list(values.values())
    return list(values)


def jain_index(values: Values) -> float:
    """Jain, Chiu & Hawe's fairness index: (Σx)² / (n·Σx²)."""
    xs = _as_list(values)
    if not xs:
        raise ValueError("need at least one value")
    if any(x < 0 for x in xs):
        raise ValueError("values must be non-negative")
    # Normalize by the largest value before squaring: tiny inputs would
    # otherwise square into subnormals, whose rounding error can push
    # the index outside its mathematical [1/n, 1] range.
    peak = max(xs)
    if peak == 0:
        return 1.0
    total = sum(x / peak for x in xs)
    # The element equal to peak contributes 1.0, so squares >= 1 here.
    squares = sum((x / peak) ** 2 for x in xs)
    return total * total / (len(xs) * squares)
