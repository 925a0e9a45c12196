"""802.11 MAC layer: frames and the DCF contention state machine."""

from repro.mac.frames import Frame, FrameType
from repro.mac.dcf import DcfMac, MacConfig, TxScheduler, ExchangeReport
from repro.mac.fifo import FifoTxScheduler
from repro.mac.polling import (
    PolledStation,
    PollingCoordinator,
    RoundRobinPollPolicy,
    TokenPollPolicy,
)

__all__ = [
    "Frame",
    "FrameType",
    "DcfMac",
    "MacConfig",
    "TxScheduler",
    "ExchangeReport",
    "FifoTxScheduler",
    "PolledStation",
    "PollingCoordinator",
    "RoundRobinPollPolicy",
    "TokenPollPolicy",
]
