"""Indoor propagation: log-distance path loss with wall attenuation.

This module supplies the SNR map that drives rate adaptation in the
EXP-1 reproduction (an AP in an office sending to four receivers at
increasing distances behind 0-2 walls, paper Section 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class Position:
    """A point in metres."""

    x: float
    y: float


def distance(a: Position, b: Position) -> float:
    """Euclidean distance in metres."""
    return math.hypot(a.x - b.x, a.y - b.y)


class LogDistancePathLoss:
    """PL(d) = PL(d0) + 10 n log10(d / d0), plus per-wall attenuation.

    Defaults model a 2.4 GHz office: PL(1 m) ~ 40 dB, exponent 3.0
    (obstructed indoor), 4 dB per thin wall.
    """

    def __init__(
        self,
        reference_loss_db: float = 40.0,
        exponent: float = 3.0,
        reference_distance_m: float = 1.0,
        wall_loss_db: float = 4.0,
    ) -> None:
        if exponent <= 0:
            raise ValueError("path-loss exponent must be positive")
        if reference_distance_m <= 0:
            raise ValueError("reference distance must be positive")
        self.reference_loss_db = reference_loss_db
        self.exponent = exponent
        self.reference_distance_m = reference_distance_m
        self.wall_loss_db = wall_loss_db

    def path_loss_db(self, dist_m: float, walls: float = 0.0) -> float:
        dist_m = max(dist_m, self.reference_distance_m)
        spread = 10.0 * self.exponent * math.log10(dist_m / self.reference_distance_m)
        return self.reference_loss_db + spread + walls * self.wall_loss_db


class RadioEnvironment:
    """Maps node addresses to positions and computes link SNRs.

    ``snr_db(src, dst) = tx_power - path_loss(src, dst) - noise_floor``.
    Wall counts are symmetric and set per pair (the EXP-1 scenario knows
    how many walls separate the AP from each receiver).
    """

    def __init__(
        self,
        path_loss: Optional[LogDistancePathLoss] = None,
        tx_power_dbm: float = 15.0,
        noise_floor_dbm: float = -92.0,
    ) -> None:
        self.path_loss = path_loss if path_loss is not None else LogDistancePathLoss()
        self.tx_power_dbm = tx_power_dbm
        self.noise_floor_dbm = noise_floor_dbm
        self.positions: Dict[str, Position] = {}
        self._walls: Dict[Tuple[str, str], float] = {}
        self._shadowing: Dict[Tuple[str, str], float] = {}

    def place(self, address: str, x: float, y: float) -> None:
        self.positions[address] = Position(x, y)

    def set_walls(self, a: str, b: str, walls: float) -> None:
        """Set the wall count between two nodes (symmetric)."""
        self._walls[(a, b)] = walls
        self._walls[(b, a)] = walls

    def set_shadowing(self, a: str, b: str, loss_db: float) -> None:
        """Extra per-link shadowing loss in dB (symmetric).

        Log-distance models capture only the distance trend; real indoor
        links deviate by tens of dB (the paper cites Kotz et al.'s
        "mistaken axioms" measurements).  Scenario builders use this to
        calibrate specific links.
        """
        self._shadowing[(a, b)] = loss_db
        self._shadowing[(b, a)] = loss_db

    def snr_db(self, src: str, dst: str) -> float:
        try:
            a = self.positions[src]
            b = self.positions[dst]
        except KeyError as missing:
            raise KeyError(f"no position for node {missing.args[0]!r}") from None
        walls = self._walls.get((src, dst), 0.0)
        loss = self.path_loss.path_loss_db(distance(a, b), walls)
        loss += self._shadowing.get((src, dst), 0.0)
        return self.tx_power_dbm - loss - self.noise_floor_dbm
