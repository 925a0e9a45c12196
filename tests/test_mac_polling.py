"""Tests for the PCF-style polling MAC and its TBR integration."""

import pytest

from repro.channel import Channel, PerLinkLoss
from repro.core import TbrConfig, TbrScheduler
from repro.mac.polling import (
    PolledStation,
    PollingCoordinator,
    RoundRobinPollPolicy,
    TokenPollPolicy,
)
from repro.phy import DOT11B_LONG_PREAMBLE
from repro.queueing import RoundRobinScheduler
from repro.sim import Simulator, us_from_s

from tests.conftest import SimplePacket

PHY = DOT11B_LONG_PREAMBLE


class PollingCell:
    """AP coordinator plus polled stations."""

    def __init__(self, rates, *, policy="rr", seed=1, tbr_config=None,
                 loss_model=None):
        self.sim = Simulator(seed=seed)
        self.channel = Channel(self.sim, loss_model)
        if policy == "rr":
            self.scheduler = RoundRobinScheduler()
            self.policy = RoundRobinPollPolicy()
        elif policy == "tbr":
            self.scheduler = TbrScheduler(self.sim, tbr_config)
            self.policy = TokenPollPolicy(self.scheduler)
        else:
            raise ValueError(policy)
        self.coordinator = PollingCoordinator(
            self.sim, self.channel, self.scheduler, PHY, self.policy
        )
        self.rx_bytes = {}
        self.coordinator.rx_handler = self._on_rx
        self.stations = []
        for i, rate in enumerate(rates):
            station = PolledStation(
                self.sim, self.channel, f"sta{i}", PHY, rate_mbps=rate,
                queue_capacity=10_000,
            )
            self.policy.register(station.address)
            self.scheduler.associate(station.address)
            self.stations.append(station)

    def _on_rx(self, frame):
        self.rx_bytes[frame.src] = (
            self.rx_bytes.get(frame.src, 0) + frame.size_bytes
        )

    def saturate_uplink(self, index, n=5000):
        for _ in range(n):
            self.stations[index].enqueue(SimplePacket("ap"))

    def run_seconds(self, seconds):
        self.sim.run(until=self.sim.now + us_from_s(seconds))

    def throughput(self, index, seconds):
        addr = self.stations[index].address
        return self.rx_bytes.get(addr, 0) * 8.0 / us_from_s(seconds)


def test_polled_station_answers_null_when_idle():
    cell = PollingCell([11.0])
    cell.run_seconds(0.05)
    assert cell.stations[0].polls_received > 5
    assert cell.stations[0].null_responses == cell.stations[0].polls_received


def test_uplink_data_flows_via_polls():
    cell = PollingCell([11.0])
    cell.saturate_uplink(0, n=50)
    cell.run_seconds(0.5)
    assert cell.rx_bytes.get("sta0", 0) == 50 * 1500


def test_no_collisions_under_polling():
    cell = PollingCell([11.0, 11.0, 11.0])
    for i in range(3):
        cell.saturate_uplink(i)
    corrupted = []
    cell.channel.add_sniffer(
        lambda f, d, c, s, e: corrupted.append(f) if c else None
    )
    cell.run_seconds(1.0)
    assert corrupted == []  # point coordination is collision-free


def test_round_robin_polling_equalizes_throughput():
    cell = PollingCell([1.0, 11.0], policy="rr", seed=2)
    cell.saturate_uplink(0)
    cell.saturate_uplink(1)
    cell.run_seconds(3.0)
    slow = cell.throughput(0, 3.0)
    fast = cell.throughput(1, 3.0)
    # Equal poll opportunities -> equal throughput: the anomaly again.
    assert slow == pytest.approx(fast, rel=0.1)


def test_token_polling_restores_time_fairness():
    """The paper's Section 4.1 claim: with a polling MAC, TBR regulates
    uplink (even UDP) with no client modification at all."""
    cell = PollingCell([1.0, 11.0], policy="tbr", seed=2)
    cell.saturate_uplink(0)
    cell.saturate_uplink(1)
    cell.run_seconds(3.0)
    slow = cell.throughput(0, 3.0)
    fast = cell.throughput(1, 3.0)
    assert fast > 4.0 * slow  # near the 11:1 rate ratio
    # Charged channel time approximately equal.
    b = cell.scheduler.buckets
    assert b["sta0"].spent_us == pytest.approx(b["sta1"].spent_us, rel=0.25)


def test_polling_survives_lossy_responses():
    loss = PerLinkLoss({("sta0", "ap"): 0.5})
    cell = PollingCell([11.0], seed=3, loss_model=loss)
    cell.saturate_uplink(0, n=200)
    cell.run_seconds(1.0)
    # Progress despite losses (no retry at the PCF level, but the
    # coordinator never deadlocks and keeps polling).
    assert cell.rx_bytes.get("sta0", 0) > 50 * 1500
    assert cell.coordinator.polls_sent > 100


def test_coordinator_idles_gracefully_without_stations():
    sim = Simulator(seed=1)
    channel = Channel(sim)
    coordinator = PollingCoordinator(
        sim, channel, RoundRobinScheduler(), PHY, RoundRobinPollPolicy()
    )
    sim.run(until=us_from_s(0.1))
    assert coordinator.idle_cycles > 0
    assert coordinator.polls_sent == 0


def test_token_policy_strict_idles_when_all_starved():
    sim = Simulator(seed=1)
    tbr = TbrScheduler(sim, TbrConfig(initial_tokens_us=0.0))
    policy = TokenPollPolicy(tbr)
    policy.register("a")
    tbr.buckets["a"].charge(1_000.0)
    assert policy.next_station() is None


#: ``policy -> (events_executed, events_by_category, polls_sent,
#: idle_cycles, ((polls_received, null_responses) per station))`` for
#: a saturated {1, 11} Mbps uplink, seed 1, 1 s.  Every poll is
#: answered with data and none idles: a shift in any figure is a change
#: to the polling loop's event volume or its poll order.
POLLING_BUDGETS = {
    "rr": (
        900, {"traffic": 0, "mac": 515, "phy": 385, "timer": 0, "other": 0},
        129, 0, ((65, 0), (64, 0)),
    ),
    "tbr": (
        1902, {"traffic": 0, "mac": 1031, "phy": 772, "timer": 99, "other": 0},
        258, 0, ((39, 0), (219, 0)),
    ),
}


@pytest.mark.parametrize("policy", sorted(POLLING_BUDGETS))
def test_polling_event_budget_is_pinned(policy):
    cell = PollingCell([1.0, 11.0], policy=policy, seed=1)
    cell.saturate_uplink(0)
    cell.saturate_uplink(1)
    cell.run_seconds(1.0)
    measured = (
        cell.sim.events_executed,
        cell.sim.events_by_category(),
        cell.coordinator.polls_sent,
        cell.coordinator.idle_cycles,
        tuple((s.polls_received, s.null_responses) for s in cell.stations),
    )
    assert measured == POLLING_BUDGETS[policy]
