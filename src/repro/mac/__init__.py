"""802.11 MAC layer: frames and the DCF contention state machine.

The PCF-style polling MAC lives in :mod:`repro.mac.polling`; no spec
selects it, so it is imported from there, not re-exported here.
"""

from repro.mac.frames import Frame, FrameType
from repro.mac.dcf import DcfMac, MacConfig, TxScheduler, ExchangeReport
from repro.mac.fifo import FifoTxScheduler

__all__ = [
    "Frame",
    "FrameType",
    "DcfMac",
    "MacConfig",
    "TxScheduler",
    "ExchangeReport",
    "FifoTxScheduler",
]
