"""Per-link frame loss models.

A loss model answers one question: *given this frame, does the intended
receiver fail to decode it?*  Collisions are handled by the medium; loss
models cover channel noise, fading and interference floors.  The ideal
channel has no model: a medium's ``loss`` is ``None`` and nothing is
asked.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.mac.frames import Frame


class LossModel:
    """Base class; subclasses override :meth:`loss_probability`."""

    def __init__(self, rng: Optional[random.Random] = None) -> None:
        self.rng = rng if rng is not None else random.Random(0)

    def loss_probability(self, frame: "Frame") -> float:
        raise NotImplementedError

    def is_lost(self, frame: "Frame") -> bool:
        p = self.loss_probability(frame)
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        return self.rng.random() < p


class BernoulliLoss(LossModel):
    """Uniform i.i.d. loss probability for every frame."""

    def __init__(self, probability: float, rng: Optional[random.Random] = None) -> None:
        super().__init__(rng)
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability!r}")
        self.probability = probability

    def loss_probability(self, frame: "Frame") -> float:
        return self.probability


class PerLinkLoss(LossModel):
    """Explicit per-(src, dst) loss probabilities; default for others.

    The paper's controlled experiments hold loss under 2 %; this model is
    how scenarios express "node 3 has a 2 % frame loss rate".
    """

    def __init__(
        self,
        links: Optional[Dict[Tuple[str, str], float]] = None,
        default: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(rng)
        self.links: Dict[Tuple[str, str], float] = dict(links or {})
        self.default = default

    def loss_probability(self, frame: "Frame") -> float:
        return self.links.get((frame.src, frame.dst), self.default)


class SnrLoss(LossModel):
    """SNR-driven loss: PER from the modulation curves and a radio map.

    ``environment`` must expose ``snr_db(src, dst)`` (see
    :class:`repro.channel.propagation.RadioEnvironment`).
    """

    def __init__(self, environment, rng: Optional[random.Random] = None) -> None:
        super().__init__(rng)
        self.environment = environment

    def loss_probability(self, frame: "Frame") -> float:
        from repro.phy.modulation import frame_error_probability

        snr = self.environment.snr_db(frame.src, frame.dst)
        return frame_error_probability(frame.rate_mbps, snr, frame.size_bytes)
