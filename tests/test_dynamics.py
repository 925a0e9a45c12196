"""Dynamic-workload system tests: arrivals, departures, adaptation.

These exercise the control loops (ADJUSTRATEEVENT, ack clocking, ARF)
under changing conditions rather than steady state.
"""

import pytest

from repro.channel import PerLinkLoss
from repro.node import ArfController, Cell


def test_rate_moves_to_survivor_when_flow_stops():
    """When one station's task ends, ADJUSTRATEEVENT hands its channel
    time to the survivor instead of idling half the cell."""
    cell = Cell(seed=3, scheduler="tbr")
    n1 = cell.add_station("n1", rate_mbps=11.0)
    n2 = cell.add_station("n2", rate_mbps=11.0)
    f1 = cell.tcp_flow(n1, direction="down")
    # n2's transfer is finite and ends early.
    f2 = cell.tcp_flow(n2, direction="down", app="task", task_bytes=1_000_000)
    cell.run(seconds=4.0)
    assert f2.stats.completed

    # Measure the survivor alone over the next window.
    cell.reset_measurements()
    cell.run(seconds=8.0)
    survivor = f1.stats.throughput_mbps(cell.measured_us)
    # Alone it should reach near the single-sender AP ceiling (~4.5),
    # not stay pinned at the two-station half share (~2.2).
    assert survivor > 3.5
    assert cell.scheduler.token_rate("n1") > 0.6


def test_late_joiner_gets_share_back():
    """A station that starts sending later still converges to its fair
    share (rates restored by the relax-toward-base mechanism)."""
    cell = Cell(seed=4, scheduler="tbr")
    n1 = cell.add_station("n1", rate_mbps=11.0)
    n2 = cell.add_station("n2", rate_mbps=11.0)
    f1 = cell.tcp_flow(n1, direction="down")
    # n1 alone for 5 s: the adjuster shifts rate toward n1.
    cell.run(seconds=5.0)
    assert cell.scheduler.token_rate("n1") > 0.6

    f2 = cell.tcp_flow(n2, direction="down")
    cell.run(seconds=12.0)
    cell.reset_measurements()
    cell.run(seconds=6.0)
    thr = cell.station_throughputs_mbps()
    assert thr["n2"] == pytest.approx(thr["n1"], rel=0.35)
    assert cell.scheduler.token_rate("n1") < 0.65
    del f1, f2


def test_arf_tracks_channel_degradation():
    """When a link's loss turns on mid-run, ARF steps the rate down and
    throughput settles instead of collapsing to retries."""
    loss = PerLinkLoss(default=0.0)
    cell = Cell(seed=5, loss_model=loss)
    arf = ArfController()
    station = cell.add_station("n1", rate_controller=arf, rate_mbps=11.0)
    flow = cell.udp_flow(station, direction="up", rate_mbps=2.0)
    cell.run(seconds=2.0)
    assert arf.rate_for("ap") == 11.0

    # Degrade: 11 Mbps frames now mostly fail, 1-2 Mbps still fine.
    # (Model a receiver moving behind a wall.)
    def degrade():
        loss.links[("n1", "ap")] = 0.9

    cell.sim.schedule(0.0, degrade)
    cell.run(seconds=3.0)
    assert arf.rate_for("ap") <= 2.0  # stepped down

    # The link is "slow but working": per-exchange failures are retried
    # at the lower rate... our loss model is rate-independent, so just
    # verify delivery continued at all.
    assert flow.stats.bytes_delivered > 0


def test_tbr_seed_robustness_uplink():
    """The headline 1vs11 uplink TBR result holds across seeds."""
    gains = []
    for seed in range(1, 6):
        totals = {}
        for scheduler in ("fifo", "tbr"):
            cell = Cell(seed=seed, scheduler=scheduler)
            n1 = cell.add_station("n1", rate_mbps=1.0)
            n2 = cell.add_station("n2", rate_mbps=11.0)
            cell.tcp_flow(n1, direction="up")
            cell.tcp_flow(n2, direction="up")
            cell.run(seconds=8.0, warmup_seconds=2.0)
            totals[scheduler] = sum(cell.station_throughputs_mbps().values())
        gains.append(totals["tbr"] / totals["fifo"] - 1.0)
    assert all(g > 0.5 for g in gains), gains


def test_many_stations_stable():
    """Eight mixed-rate stations: TBR still beats FIFO and nobody
    starves (stress the round-robin eligibility scan)."""
    rates = [1.0, 1.0, 2.0, 2.0, 5.5, 5.5, 11.0, 11.0]
    totals = {}
    per_station = {}
    for scheduler in ("fifo", "tbr"):
        cell = Cell(seed=7, scheduler=scheduler)
        for i, rate in enumerate(rates):
            st = cell.add_station(f"n{i}", rate_mbps=rate)
            cell.tcp_flow(st, direction="down")
        cell.run(seconds=10.0, warmup_seconds=2.0)
        thr = cell.station_throughputs_mbps()
        totals[scheduler] = sum(thr.values())
        per_station[scheduler] = thr
    assert totals["tbr"] > 1.3 * totals["fifo"]
    assert all(v > 0.02 for v in per_station["tbr"].values())
