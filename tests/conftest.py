"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import pytest

from repro.channel import Channel
from repro.mac import DcfMac, FifoTxScheduler
from repro.phy import DOT11B_LONG_PREAMBLE
from repro.sim import Simulator, us_from_s


try:  # CI jobs that run no property test install only pytest
    from hypothesis import settings
except ImportError:
    pass
else:
    #: ``--hypothesis-profile=serve-soak``: the raw-socket fuzz of
    #: ``repro serve`` (tests/test_serve_fuzz.py) at a soak's budget.
    settings.register_profile("serve-soak", max_examples=1000, deadline=None)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: full-size multi-process campaign tests and full-duration "
        "paper claims; skipped unless REPRO_RUN_SLOW=1 is set (tier-1 "
        "covers the same paths with small-N, short-run configurations)",
    )


def pytest_collection_modifyitems(config, items):
    if os.environ.get("REPRO_RUN_SLOW", "").lower() not in ("", "0", "false", "no"):
        return
    skip_slow = pytest.mark.skip(
        reason="slow test; set REPRO_RUN_SLOW=1 to run"
    )
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


class SimplePacket:
    """Duck-typed upper-layer packet for MAC-level tests."""

    def __init__(self, dst: str, size: int = 1500, station: str = "sta"):
        self.mac_dst = dst
        self.size_bytes = size
        self.station = station


class MacHarness:
    """An AP plus n stations on one channel, driven at the MAC layer."""

    def __init__(self, n_stations: int = 2, rates=None, seed: int = 1,
                 loss_model=None, phy=DOT11B_LONG_PREAMBLE):
        self.sim = Simulator(seed=seed)
        self.channel = Channel(self.sim, loss_model)
        self.phy = phy
        self.ap = DcfMac(self.sim, self.channel, "ap", phy)
        self.ap_sched = FifoTxScheduler()
        self.ap.attach_scheduler(self.ap_sched)
        self.rx_bytes = {}
        self.rx_frames = []
        self.ap.rx_handler = self._on_ap_rx
        self.macs = []
        self.scheds = []
        rates = rates if rates is not None else [11.0] * n_stations
        for i, rate in enumerate(rates):
            mac = DcfMac(
                self.sim, self.channel, f"sta{i}", phy, default_rate_mbps=rate
            )
            sched = FifoTxScheduler()
            mac.attach_scheduler(sched)
            self.macs.append(mac)
            self.scheds.append(sched)

    def _on_ap_rx(self, frame):
        self.rx_frames.append(frame)
        self.rx_bytes[frame.src] = (
            self.rx_bytes.get(frame.src, 0) + frame.size_bytes
        )

    def saturate(self, index: int, depth: int = 5, size: int = 1500) -> None:
        """Keep station ``index``'s queue topped up forever."""
        sched = self.scheds[index]
        sched.completion_listeners.append(
            lambda p, a, s, n, r, sched=sched, size=size: sched.enqueue(
                SimplePacket("ap", size)
            )
        )
        for _ in range(depth):
            sched.enqueue(SimplePacket("ap", size))

    def run_seconds(self, seconds: float) -> None:
        self.sim.run(until=self.sim.now + us_from_s(seconds))

    def throughput_mbps(self, src: str, seconds: float) -> float:
        return self.rx_bytes.get(src, 0) * 8.0 / us_from_s(seconds)


@pytest.fixture
def mac_harness():
    return MacHarness
