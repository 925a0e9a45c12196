#!/usr/bin/env python3
"""TBR over a polling MAC: time fairness with unmodified clients.

The paper (Section 4.1) observes that when the MAC polls stations
(802.11's PCF), TBR needs no client cooperation at all: the AP simply
polls token-positive stations.  This example builds a PCF-style cell
with a 1 Mbps and an 11 Mbps uploader (saturated UDP — the worst case
for ack-clocked regulation) and compares poll policies.

Run:  python examples/polling_coordinator.py
"""

from repro.channel import Channel
from repro.core import TbrScheduler
from repro.mac import (
    PolledStation,
    PollingCoordinator,
    RoundRobinPollPolicy,
    TokenPollPolicy,
)
from repro.phy import DOT11B_LONG_PREAMBLE
from repro.queueing import RoundRobinScheduler
from repro.sim import Simulator, us_from_s


class Backlog:
    """A saturating packet supply for one station."""

    def __init__(self, n=20_000):
        self.packets = [type("Pkt", (), {"size_bytes": 1500})()
                        for _ in range(n)]


def run_case(policy_name: str, seconds: float = 5.0):
    sim = Simulator(seed=9)
    channel = Channel(sim)
    if policy_name == "round-robin":
        scheduler = RoundRobinScheduler()
        policy = RoundRobinPollPolicy()
    else:
        scheduler = TbrScheduler(sim)
        policy = TokenPollPolicy(scheduler)
    coordinator = PollingCoordinator(
        sim, channel, scheduler, DOT11B_LONG_PREAMBLE, policy
    )
    received = {}
    coordinator.rx_handler = lambda f: received.__setitem__(
        f.src, received.get(f.src, 0) + f.size_bytes
    )
    for name, rate in (("slow", 1.0), ("fast", 11.0)):
        station = PolledStation(
            sim, channel, name, DOT11B_LONG_PREAMBLE,
            rate_mbps=rate, queue_capacity=20_000,
        )
        policy.register(name)
        scheduler.associate(name)
        for pkt in Backlog().packets:
            station.enqueue(pkt)
    sim.run(until=us_from_s(seconds))
    return {
        name: received.get(name, 0) * 8.0 / us_from_s(seconds)
        for name in ("slow", "fast")
    }


def main() -> None:
    print("Saturated UDP uplink, 1 Mbps vs 11 Mbps, PCF-style polling.\n")
    rr = run_case("round-robin")
    print(f"round-robin polls : slow {rr['slow']:.2f}  fast {rr['fast']:.2f} "
          f" total {sum(rr.values()):.2f} Mbps   <- the anomaly, again")
    tbr = run_case("tbr")
    print(f"token-driven polls: slow {tbr['slow']:.2f}  fast {tbr['fast']:.2f} "
          f" total {sum(tbr.values()):.2f} Mbps   <- time fairness")
    print(
        "\nNo station-side changes, no notification bits: the coordinator "
        "just stops polling\nstations whose channel-time budget is spent."
    )


if __name__ == "__main__":
    main()
