"""Tests for stations, the AP and the Cell scenario builder."""

import pytest

from repro.core import TbrConfig, TbrScheduler
from repro.node import ArfController, Cell
from repro.phy import (
    DOT11B_LONG_PREAMBLE,
    ack_airtime_us,
    exchange_airtime_us,
    frame_airtime_us,
)
from repro.queueing import ApFifoScheduler, DrrScheduler, RoundRobinScheduler


# ----------------------------------------------------------------------
# Cell construction
# ----------------------------------------------------------------------
def test_scheduler_by_name():
    assert isinstance(Cell(scheduler="fifo").scheduler, ApFifoScheduler)
    assert isinstance(Cell(scheduler="rr").scheduler, RoundRobinScheduler)
    assert isinstance(Cell(scheduler="drr").scheduler, DrrScheduler)
    assert isinstance(Cell(scheduler="tbr").scheduler, TbrScheduler)


def test_scheduler_instance_accepted():
    sched = RoundRobinScheduler()
    assert Cell(scheduler=sched).scheduler is sched


def test_unknown_scheduler_rejected():
    with pytest.raises(ValueError):
        Cell(scheduler="wfq")


def test_duplicate_station_rejected():
    cell = Cell()
    cell.add_station("x")
    with pytest.raises(ValueError):
        cell.add_station("x")


def test_station_auto_naming():
    cell = Cell()
    a = cell.add_station()
    b = cell.add_station()
    assert a.address == "sta0" and b.address == "sta1"


def test_add_station_associates_with_ap():
    cell = Cell(scheduler="tbr")
    cell.add_station("n1")
    assert "n1" in cell.scheduler.buckets


def test_downlink_rate_defaults_to_station_rate():
    cell = Cell()
    cell.add_station("slow", rate_mbps=1.0)
    assert cell.ap.rate_controller.rate_for("slow") == 1.0


def test_downlink_rate_override():
    cell = Cell()
    cell.add_station("x", rate_mbps=11.0, downlink_rate_mbps=2.0)
    assert cell.ap.rate_controller.rate_for("x") == 2.0


def test_flow_validation():
    cell = Cell()
    station = cell.add_station("x")
    with pytest.raises(ValueError):
        cell.tcp_flow(station, direction="sideways")
    with pytest.raises(ValueError):
        cell.tcp_flow(station, app="task")  # missing task_bytes
    with pytest.raises(ValueError):
        cell.tcp_flow(station, app="paced")  # missing paced_mbps
    with pytest.raises(ValueError):
        cell.tcp_flow(station, app="quic")
    with pytest.raises(ValueError):
        cell.udp_flow(station, direction="sideways")


# ----------------------------------------------------------------------
# end-to-end flows
# ----------------------------------------------------------------------
def test_tcp_uplink_delivers():
    cell = Cell(seed=1)
    station = cell.add_station("n1")
    flow = cell.tcp_flow(station, direction="up")
    cell.run(seconds=2.0)
    assert flow.stats.bytes_delivered > 500_000
    assert flow.throughput_mbps() > 2.0


def test_tcp_downlink_delivers():
    cell = Cell(seed=1)
    station = cell.add_station("n1")
    flow = cell.tcp_flow(station, direction="down")
    cell.run(seconds=2.0)
    assert flow.throughput_mbps() > 2.0


def test_udp_downlink_delivers_at_offered_rate():
    cell = Cell(seed=1)
    station = cell.add_station("n1")
    flow = cell.udp_flow(station, direction="down", rate_mbps=2.0)
    cell.run(seconds=2.0)
    assert flow.throughput_mbps() == pytest.approx(2.0, rel=0.1)


def test_udp_uplink_delivers():
    cell = Cell(seed=1)
    station = cell.add_station("n1")
    flow = cell.udp_flow(station, direction="up", rate_mbps=2.0)
    cell.run(seconds=2.0)
    assert flow.throughput_mbps() == pytest.approx(2.0, rel=0.1)


def test_task_flow_completes():
    cell = Cell(seed=1)
    station = cell.add_station("n1")
    flow = cell.tcp_flow(station, direction="up", app="task",
                         task_bytes=200_000)
    cell.run(seconds=5.0)
    assert flow.stats.completed
    assert flow.stats.bytes_delivered == 200_000


def test_paced_flow_respects_rate():
    cell = Cell(seed=1)
    station = cell.add_station("n1")
    flow = cell.tcp_flow(station, direction="up", app="paced", paced_mbps=1.0)
    cell.run(seconds=4.0, warmup_seconds=1.0)
    assert flow.throughput_mbps(cell.measured_us) == pytest.approx(1.0, rel=0.15)


def test_warmup_resets_measurements():
    cell = Cell(seed=1)
    station = cell.add_station("n1")
    flow = cell.tcp_flow(station, direction="up")
    cell.run(seconds=2.0, warmup_seconds=1.0)
    # Throughput computed over the 2 s measurement window only.
    assert cell.measured_us == pytest.approx(2_000_000.0)
    assert flow.stats.throughput_mbps(cell.measured_us) > 2.0


def test_station_throughputs_aggregate_flows():
    cell = Cell(seed=1)
    station = cell.add_station("n1")
    cell.udp_flow(station, direction="down", rate_mbps=1.0)
    cell.udp_flow(station, direction="down", rate_mbps=1.0)
    cell.run(seconds=2.0)
    per_station = cell.station_throughputs_mbps()
    assert per_station["n1"] == pytest.approx(2.0, rel=0.1)


def test_occupancy_accounts_both_directions():
    cell = Cell(seed=1)
    n1 = cell.add_station("n1")
    n2 = cell.add_station("n2")
    cell.tcp_flow(n1, direction="up")
    cell.tcp_flow(n2, direction="down")
    cell.run(seconds=2.0)
    occ = cell.occupancy_fractions()
    assert occ["n1"] > 0.1 and occ["n2"] > 0.1
    assert sum(occ.values()) < 1.01
    shares = cell.occupancy_shares()
    assert sum(shares.values()) == pytest.approx(1.0)


def test_flow_names_unique_and_descriptive():
    cell = Cell()
    station = cell.add_station("n1")
    f1 = cell.tcp_flow(station, direction="up")
    f2 = cell.udp_flow(station, direction="down")
    assert f1.name == "n1/tcp-up"
    assert f2.name == "n1/udp-down"


# ----------------------------------------------------------------------
# AP specifics
# ----------------------------------------------------------------------
def test_ap_exchange_estimate_formula():
    cell = Cell()
    phy = DOT11B_LONG_PREAMBLE
    est = exchange_airtime_us(cell.ap.phy, 1500, 11.0)
    expected = (
        phy.difs_us
        + frame_airtime_us(phy, 1500, 11.0)
        + phy.sifs_us
        + ack_airtime_us(phy, 2.0)
    )
    assert est == pytest.approx(expected)


def test_ap_estimate_with_attempts():
    cell = Cell()
    one = exchange_airtime_us(cell.ap.phy, 1500, 11.0, attempts=1)
    three = exchange_airtime_us(cell.ap.phy, 1500, 11.0, attempts=3)
    phy = DOT11B_LONG_PREAMBLE
    per_attempt = phy.difs_us + frame_airtime_us(phy, 1500, 11.0)
    assert three - one == pytest.approx(2 * per_attempt)


def test_ap_set_downlink_rate_requires_fixed_controller():
    cell = Cell(ap_rate_controller=ArfController())
    with pytest.raises(TypeError):
        cell.ap.set_downlink_rate("x", 5.5)


@pytest.mark.parametrize("scheduler", ["fifo", "rr", "drr", DrrScheduler()])
def test_cell_rejects_a_tbr_config_it_would_ignore(scheduler):
    with pytest.raises(ValueError, match="takes no tbr_config"):
        Cell(scheduler=scheduler, tbr_config=TbrConfig())


def test_station_cooperation_gate():
    cell = Cell(seed=1, scheduler="tbr",
                tbr_config=TbrConfig(notify_clients=True))
    station = cell.add_station("n1", cooperate_with_tbr=True)
    assert station.queue.release_gate is not None
    station._on_defer_hint(1_000.0)
    assert not station._may_transmit()
    cell.sim.run(until=cell.sim.now + 1_001.0)
    assert station._may_transmit()


def test_determinism_end_to_end():
    def run():
        cell = Cell(seed=33, scheduler="tbr")
        n1 = cell.add_station("n1", rate_mbps=1.0)
        n2 = cell.add_station("n2", rate_mbps=11.0)
        cell.tcp_flow(n1, direction="up")
        cell.tcp_flow(n2, direction="down")
        cell.run(seconds=1.5)
        return cell.throughputs_mbps()

    assert run() == run()
