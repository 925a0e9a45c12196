"""Discrete-event simulation kernel.

A minimal, deterministic discrete-event engine used by every other
subsystem in this repository.  Time is measured in floating-point
microseconds (``us``); 1 Mbps equals exactly 1 bit per microsecond, which
keeps PHY airtime arithmetic free of unit conversions.

The kernel orders events by ``(time, priority, sequence)``.  Priorities let
the 802.11 MAC express slot-synchronous semantics (e.g. two stations whose
backoff expires in the same slot must both decide to transmit *before*
either observes the other's carrier).
"""

from repro.sim.event import EventCategory, EventPriority
from repro.sim.kernel import Simulator, SimulationError
from repro.sim.timers import PeriodicTimer
from repro.sim.units import US_PER_S, us_from_s, throughput_mbps

__all__ = [
    "EventCategory",
    "EventPriority",
    "Simulator",
    "SimulationError",
    "PeriodicTimer",
    "US_PER_S",
    "us_from_s",
    "throughput_mbps",
]
