"""Tests for station/AP internals: bridging, accounting, cooperation."""

import cProfile
import pstats

import pytest

from repro.channel import PerLinkLoss
from repro.core import TbrConfig
from repro.mac import FifoTxScheduler
from repro.node import Cell
from repro.phy import exchange_airtime_us


# ----------------------------------------------------------------------
# FIFO tx scheduler details
# ----------------------------------------------------------------------
def test_fifo_tx_scheduler_capacity_and_drops():
    sched = FifoTxScheduler(capacity=2)

    class P:
        size_bytes = 100
        mac_dst = "ap"

    assert sched.enqueue(P())
    assert sched.enqueue(P())
    assert not sched.enqueue(P())
    assert sched.dropped == 1
    assert len(sched) == 2


def test_fifo_tx_scheduler_validation():
    with pytest.raises(ValueError):
        FifoTxScheduler(capacity=0)


def test_fifo_release_gate_blocks_and_wakes():
    sched = FifoTxScheduler()
    gate = {"open": False}
    sched.release_gate = lambda: gate["open"]

    class P:
        size_bytes = 100
        mac_dst = "ap"

    sched.enqueue(P())
    assert sched.dequeue() is None  # gated
    gate["open"] = True
    assert sched.dequeue() is not None


# ----------------------------------------------------------------------
# AP bridging and accounting
# ----------------------------------------------------------------------
def test_uplink_packets_bridge_to_wired_host():
    cell = Cell(seed=1)
    station = cell.add_station("n1")
    flow = cell.udp_flow(station, direction="up", rate_mbps=1.0)
    cell.run(seconds=1.0)
    assert cell.ap.uplink_packets > 50
    assert flow.stats.bytes_delivered > 0


def test_ap_counts_downlink_packets():
    cell = Cell(seed=1)
    station = cell.add_station("n1")
    cell.udp_flow(station, direction="down", rate_mbps=1.0)
    cell.run(seconds=1.0)
    assert cell.ap.downlink_packets > 50


def test_uplink_receptions_charge_the_scheduler_with_estimates():
    cell = Cell(seed=1, scheduler="tbr")
    station = cell.add_station("n1", rate_mbps=11.0)
    cell.udp_flow(station, direction="up", rate_mbps=1.0)
    bucket = cell.scheduler.buckets["n1"]
    observed = []
    on_uplink_complete = cell.scheduler.on_uplink_complete

    def tapped(frame, airtime_us=None):
        spent = bucket.spent_us
        on_uplink_complete(frame, airtime_us)
        observed.append((frame.src, bucket.spent_us - spent))

    cell.scheduler.on_uplink_complete = tapped
    cell.run(seconds=0.5)
    assert observed
    expected = exchange_airtime_us(cell.ap.phy, 1500, 11.0)
    stations, estimates = zip(*observed)
    assert all(s == "n1" for s in stations)
    assert all(e == pytest.approx(expected) for e in estimates)


def test_a_fifo_cell_prices_no_uplink_frame():
    """Only TBR reads an uplink price, so the AP computes none."""
    cell = Cell(seed=1)
    station = cell.add_station("n1", rate_mbps=11.0)
    cell.udp_flow(station, direction="up", rate_mbps=1.0)
    profile = cProfile.Profile()
    profile.runcall(cell.run, seconds=0.5)
    assert cell.ap.uplink_packets > 0
    called = {name for _, _, name in pstats.Stats(profile).stats}
    assert "exchange_airtime_us" not in called


def test_oracle_retry_accounting_charges_more_when_lossy():
    def charged(oracle):
        loss = PerLinkLoss({("n1", "ap"): 0.3})
        config = TbrConfig(uplink_charge="oracle" if oracle else "one")
        cell = Cell(
            seed=6, scheduler="tbr", loss_model=loss, tbr_config=config,
        )
        station = cell.add_station("n1", rate_mbps=11.0)
        cell.udp_flow(station, direction="up", rate_mbps=2.0)
        cell.run(seconds=3.0)
        return cell.scheduler.buckets["n1"].spent_us

    assert charged(True) > 1.1 * charged(False)


def test_tbr_ack_decoration_through_cell():
    config = TbrConfig(notify_clients=True, defer_hint_us=4_000.0)
    cell = Cell(seed=2, scheduler="tbr", tbr_config=config)
    station = cell.add_station("n1", rate_mbps=1.0, cooperate_with_tbr=True)
    other = cell.add_station("n2", rate_mbps=11.0, cooperate_with_tbr=True)
    cell.udp_flow(station, direction="up", rate_mbps=3.0)
    cell.udp_flow(other, direction="up", rate_mbps=6.0)
    hints = []
    original = station.mac.defer_hint_handler
    station.mac.defer_hint_handler = lambda d: (hints.append(d), original(d))
    cell.run(seconds=3.0)
    # The 1 Mbps station over-consumes, gets starved, and receives
    # defer hints piggybacked on MAC ACKs.
    assert hints
    assert all(h == 4_000.0 for h in hints)


def test_tbr_ack_hints_survive_an_ap_outage():
    """The scheduler re-bound at ``outage_end`` keeps stamping ACKs."""
    config = TbrConfig(notify_clients=True, defer_hint_us=4_000.0)
    cell = Cell(seed=2, scheduler="tbr", tbr_config=config)
    station = cell.add_station("n1", rate_mbps=1.0, cooperate_with_tbr=True)
    other = cell.add_station("n2", rate_mbps=11.0, cooperate_with_tbr=True)
    cell.udp_flow(station, direction="up", rate_mbps=3.0)
    cell.udp_flow(other, direction="up", rate_mbps=6.0)
    cell.run(seconds=1.0)
    cell.ap.outage_begin()
    cell.ap.outage_end()
    hints = []
    original = station.mac.defer_hint_handler
    station.mac.defer_hint_handler = lambda d: (hints.append(d), original(d))
    cell.run(seconds=2.0)
    assert hints
    assert all(h == 4_000.0 for h in hints)


def test_station_rx_byte_counter():
    cell = Cell(seed=1)
    station = cell.add_station("n1")
    cell.udp_flow(station, direction="down", rate_mbps=1.0)
    cell.run(seconds=1.0)
    assert station.rx_bytes > 0


def test_wired_link_budget_is_generous():
    """The backbone must never be the bottleneck in paper scenarios."""
    cell = Cell(seed=1)
    station = cell.add_station("n1")
    flow = cell.udp_flow(station, direction="down", rate_mbps=6.0)
    cell.run(seconds=2.0)
    # The WLAN (not the 100 Mbps wire) limits this: ~5.5-6 Mbps arrive.
    assert flow.throughput_mbps() > 5.0


def test_two_cells_do_not_share_state():
    a = Cell(seed=1)
    b = Cell(seed=1)
    sa = a.add_station("x")
    sb = b.add_station("x")
    a.udp_flow(sa, direction="down", rate_mbps=1.0)
    a.run(seconds=0.5)
    assert b.sim.now == 0.0
    assert sum(b.channel.occupancies_us().values()) == 0.0
    del sb
