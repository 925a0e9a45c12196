"""Single-cell wireless channel: medium, propagation and loss models.

The channel is a broadcast medium with zero propagation delay (a single
802.11 cell is a few tens of metres; propagation is nanoseconds against
20 us slots).  Any temporal overlap between two transmissions corrupts
both — collision behaviour therefore *emerges* from MAC timing rather
than being injected as a probability.
"""

from repro.channel.medium import Channel, Transmission, ChannelListener, UsageRecord
from repro.channel.loss import (
    LossModel,
    BernoulliLoss,
    PerLinkLoss,
    SnrLoss,
)
from repro.channel.propagation import (
    Position,
    LogDistancePathLoss,
    RadioEnvironment,
    distance,
)

__all__ = [
    "Channel",
    "Transmission",
    "ChannelListener",
    "LossModel",
    "BernoulliLoss",
    "PerLinkLoss",
    "SnrLoss",
    "Position",
    "LogDistancePathLoss",
    "RadioEnvironment",
    "distance",
    "UsageRecord",
]
