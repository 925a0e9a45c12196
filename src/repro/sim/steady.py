"""Steady-state detection and analytic fast-forward (ROADMAP item 2a).

Saturated cells spend almost all simulated time in a periodic steady
state: every backlogged station's queue stays pegged, the AP drains at a
fixed per-station cycle, and nothing structural changes until the next
timeline perturbation.  Grinding through every DCF/PHY event of such a
stretch costs O(packets); this module collapses it to O(transitions).

The machinery has three parts:

* :class:`SteadyStateDetector` — watches a calibration window and
  declares steady state only when the workload is *provably* in the
  regime the paper's analytic model describes: saturated downlink UDP,
  stable membership (keyed on object identity, never station names),
  zero MAC retries, and measured occupancy shares that agree with
  ``analysis.model``'s DCF/TBR share equations (Eqs 4 and 11, weighted
  variants included).
* the planner inside :class:`FastForwardEngine` — measures per-
  accumulator rates over the calibration window, synthesizes the
  skipped interval's contribution (flow bytes, occupancy/exchange
  counts, queue drops, wire deliveries, channel busy time, TBR token
  spend/fill and rate history), shifts every component-held absolute
  timestamp via the ``fast_forward(delta_us)`` protocol, and jumps the
  kernel with :meth:`Simulator.fast_forward_to`.
* the engagement contract — a jump never crosses a pending timeline
  event (category OTHER is pinned in the kernel), never happens within
  ``min_skip_us`` of one, and anything the detector cannot certify
  (TCP flows, churn, chaos, loss windows, rate switches mid-window)
  simply runs event-by-event, byte-identical to a run without the flag.

Enable with ``REPRO_FASTFWD=1`` (or ``fast_forward=True`` on
``ScenarioRuntime``/``run_spec``); see EXPERIMENTS.md "Fast-forward".
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.sim.event import EventCategory
from repro.sim.units import us_from_s

#: environment toggle: "1"/"true"/"yes"/"on" enable fast-forward.
FASTFWD_ENV = "REPRO_FASTFWD"

_TRUTHY = {"1", "true", "yes", "on"}


def fastforward_enabled() -> bool:
    """Is fast-forward requested via the environment?"""
    return os.environ.get(FASTFWD_ENV, "").strip().lower() in _TRUTHY


@dataclass
class FastForwardConfig:
    """Engagement tunables (defaults chosen for long-horizon runs)."""

    #: event-by-event measurement window before each jump decision.
    calibration_us: float = 400_000.0
    #: smallest interval worth synthesizing; anything closer to the next
    #: timeline event (or the horizon) runs event-by-event.  Also the
    #: reason short golden windows are byte-identical under the flag:
    #: a window shorter than ``calibration_us + min_skip_us`` can never
    #: jump.
    min_skip_us: float = 1_000_000.0
    #: absolute tolerance between measured occupancy shares and the
    #: analytic model's prediction (loose: the model gates *regime*
    #: membership, the measured rates drive the synthesis).
    share_tolerance: float = 0.2
    #: max backlog drift across the window still called stable: the
    #: larger of this packet count and half the starting backlog (a
    #: shared drop-tail FIFO keeps per-station backlogs pegged only in
    #: aggregate — individual stations legitimately swing by a dozen
    #: packets while the cell is perfectly steady).
    backlog_jitter: int = 4


class _Snapshot:
    """Accumulator and membership state at a calibration-window start."""

    __slots__ = (
        "flow_ids", "station_idents", "queue_idents", "bucket_names",
        "backlogs", "flow_bytes", "flow_segments", "occupancy",
        "exchanges", "drops", "fifo_dropped", "wire_delivered",
        "downlink_packets", "busy_us", "spent_us", "bad_exchanges",
        "other_events",
    )


class FastForwardEngine:
    """Runs a cell with analytic skips over certified steady stretches.

    Drop-in replacement for ``cell.run(seconds, warmup_seconds=...)``:
    statically ineligible workloads (any non-UDP or non-downlink flow)
    fall back to exactly that call, and eligible ones interleave
    event-by-event calibration windows with synthesized jumps bounded
    by the next pending timeline event.
    """

    def __init__(
        self, cell, config: Optional[FastForwardConfig] = None
    ) -> None:
        self.cell = cell
        self.config = config if config is not None else FastForwardConfig()
        #: jumps taken (mirrors ``sim.fast_forwards`` for this engine).
        self.jumps = 0
        #: AP MAC exchanges in the current window that needed a retry or
        #: failed outright — any of these voids the steady-state claim.
        self._bad_exchanges = 0
        self._listener_installed = False

    # ------------------------------------------------------------------
    # eligibility
    # ------------------------------------------------------------------
    def _statically_eligible(self) -> bool:
        """Only saturable downlink-UDP workloads are ever fast-forwarded.

        TCP's windowed feedback loop has no closed-form steady cycle in
        ``analysis.model``'s terms, and uplink flows add station-side
        contention the planner does not synthesize — both run
        event-by-event always.
        """
        flows = self.cell.flows
        if not flows:
            return False
        for flow in flows:
            if flow.kind != "udp" or flow.direction != "down":
                return False
        return True

    def _on_ap_exchange(self, report) -> None:
        if report.attempts > 1 or not report.success:
            self._bad_exchanges += 1

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, seconds: float, *, warmup_seconds: float = 0.0) -> None:
        cell = self.cell
        if not self._statically_eligible():
            cell.run(seconds, warmup_seconds=warmup_seconds)
            return
        if not self._listener_installed:
            cell.ap.mac.add_completion_listener(self._on_ap_exchange)
            self._listener_installed = True
        sim = cell.sim
        if warmup_seconds > 0:
            sim.run(until=sim.now + us_from_s(warmup_seconds))
            cell.reset_measurements()
        until = sim.now + us_from_s(seconds)
        config = self.config
        while sim.now < until:
            window_start = sim.now
            snap = self._snapshot()
            sim.run(until=min(window_start + config.calibration_us, until))
            if sim.now >= until:
                break
            window = sim.now - window_start
            if window <= 0:
                continue
            landmark = sim.next_pending(EventCategory.OTHER)
            target = until if landmark is None else min(landmark, until)
            delta = target - sim.now
            if delta < config.min_skip_us:
                continue
            if not self._steady(snap):
                continue
            self._credit(snap, window, delta)
            cell.fast_forward(delta)
            sim.fast_forward_to(target)
            self.jumps += 1

    # ------------------------------------------------------------------
    # detector
    # ------------------------------------------------------------------
    def _snapshot(self) -> _Snapshot:
        cell = self.cell
        scheduler = cell.scheduler
        snap = _Snapshot()
        # Membership keyed on *object identity* (station/queue instances,
        # bucket keys), never on name matching: a station literally named
        # "steady" (the bursty family ships one) is just another station,
        # and a leave/rejoin under the same name changes the identity set.
        snap.flow_ids = frozenset(id(flow) for flow in cell.flows)
        snap.station_idents = frozenset(
            (name, id(station)) for name, station in cell.stations.items()
        )
        snap.queue_idents = frozenset(
            (name, id(queue)) for name, queue in scheduler.queues.items()
        )
        buckets = getattr(scheduler, "buckets", None)
        snap.bucket_names = frozenset(buckets) if buckets is not None else frozenset()
        snap.backlogs = {
            name: scheduler.backlog(name) for name in cell.stations
        }
        snap.flow_bytes = {
            id(flow): flow.stats.bytes_delivered for flow in cell.flows
        }
        snap.flow_segments = {
            id(flow): flow.stats.segments_delivered for flow in cell.flows
        }
        snap.occupancy = cell.usage.occupancies_us()
        snap.exchanges = cell.usage.exchange_counts()
        snap.drops = {
            name: queue.dropped for name, queue in scheduler.queues.items()
        }
        # The shared-FIFO discipline counts its tail drops on the
        # scheduler, not on the (always empty) per-station queues.
        snap.fifo_dropped = getattr(scheduler, "fifo_dropped", None)
        snap.wire_delivered = cell.ap.downlink_wire.delivered
        snap.downlink_packets = cell.ap.downlink_packets
        snap.busy_us = self._channel_busy_us()
        snap.spent_us = (
            {name: bucket.spent_us for name, bucket in buckets.items()}
            if buckets is not None
            else {}
        )
        snap.bad_exchanges = self._bad_exchanges
        snap.other_events = cell.sim._cat_counts[EventCategory.OTHER]
        return snap

    def _channel_busy_us(self) -> float:
        channel = self.cell.channel
        busy = channel._busy_accum
        if channel.busy and channel.busy_start is not None:
            busy += channel.sim.now - channel.busy_start
        return busy

    def _steady(self, snap: _Snapshot) -> bool:
        cell = self.cell
        scheduler = cell.scheduler
        # (a) flow set unchanged and still all-eligible, with no source
        # stopped (a quiesced flow means churn/chaos touched the cell).
        flows = cell.flows
        if frozenset(id(flow) for flow in flows) != snap.flow_ids:
            return False
        for flow in flows:
            if flow.kind != "udp" or flow.direction != "down":
                return False
            if getattr(flow.sender, "stop_us", None) is not None:
                return False
        # (b) membership stable across the window, by identity.
        if frozenset(
            (name, id(station)) for name, station in cell.stations.items()
        ) != snap.station_idents:
            return False
        if frozenset(
            (name, id(queue)) for name, queue in scheduler.queues.items()
        ) != snap.queue_idents:
            return False
        buckets = getattr(scheduler, "buckets", None)
        bucket_names = frozenset(buckets) if buckets is not None else frozenset()
        if bucket_names != snap.bucket_names:
            return False
        # (c) a timeline event fired *inside* the calibration window: the
        # measured rates blend the before/after regimes and must not
        # seed a synthesis (the very next window is clean again).
        if (
            cell.sim._cat_counts[EventCategory.OTHER]
            != snap.other_events
        ):
            return False
        # (d) saturation: every station feeding a downlink flow stayed
        # backlogged, with only packet-level jitter (relative for large
        # backlogs — see FastForwardConfig.backlog_jitter).
        fed = {flow.station.address for flow in flows}
        for name in fed:
            before = snap.backlogs.get(name, 0)
            now = scheduler.backlog(name)
            if before <= 0 or now <= 0:
                return False
            limit = max(self.config.backlog_jitter, before // 2)
            if abs(now - before) > limit:
                return False
        # (e) a clean channel: any retried or failed AP exchange in the
        # window (loss models, degrade windows, collisions) disqualifies.
        if self._bad_exchanges != snap.bad_exchanges:
            return False
        # (f) the analytic model agrees this is its regime.
        return self._shares_match_model(snap)

    def _shares_match_model(self, snap: _Snapshot) -> bool:
        """Compare window occupancy shares with Eq 4 / Eq 11 predictions."""
        from repro.analysis.model import (
            NodeSpec,
            dcf_time_shares,
            tf_time_shares,
        )

        cell = self.cell
        scheduler = cell.scheduler
        occupancy = cell.usage.occupancies_us()
        deltas = {
            name: occupancy.get(name, 0.0) - snap.occupancy.get(name, 0.0)
            for name in cell.stations
        }
        total = sum(deltas.values())
        if total <= 0.0:
            return False
        packet_bytes = {
            flow.station.address: flow.sender.packet_bytes
            for flow in cell.flows
        }
        rate_for = cell.ap.rate_controller.rate_for
        weights = getattr(
            getattr(scheduler, "config", None), "weights", {}
        ) or {}
        nodes = [
            NodeSpec(
                name,
                rate_for(name),
                packet_bytes=packet_bytes.get(name, 1500),
                weight=weights.get(name, 1.0),
            )
            for name in cell.stations
        ]
        if getattr(scheduler, "buckets", None) is not None:
            predicted = tf_time_shares(nodes)
        else:
            predicted = dcf_time_shares(nodes, transport="udp")
        tolerance = self.config.share_tolerance
        for name in cell.stations:
            measured = deltas[name] / total
            if abs(measured - predicted[name]) > tolerance:
                return False
        return True

    # ------------------------------------------------------------------
    # planner: synthesize the skipped interval
    # ------------------------------------------------------------------
    def _credit(self, snap: _Snapshot, window: float, delta: float) -> None:
        """Fold ``delta`` us of steady state into every accumulator.

        Rates are measured over the just-completed calibration window;
        integer accumulators are credited with the rounded product (one
        packet of rounding error per jump, bounded by the jump count,
        not the horizon).  TBR token *fills* are exact (``rate × Δ`` by
        construction); spend and occupancy ride the measured cycle.
        """
        cell = self.cell
        scale = delta / window
        for flow in cell.flows:
            stats = flow.stats
            fid = id(flow)
            stats.bytes_delivered += int(round(
                (stats.bytes_delivered - snap.flow_bytes[fid]) * scale
            ))
            stats.segments_delivered += int(round(
                (stats.segments_delivered - snap.flow_segments[fid]) * scale
            ))
        usage = cell.usage
        occupancy = usage.occupancies_us()
        exchanges = usage.exchange_counts()
        for name in cell.stations:
            occ_delta = occupancy.get(name, 0.0) - snap.occupancy.get(name, 0.0)
            exch_delta = exchanges.get(name, 0) - snap.exchanges.get(name, 0)
            usage.credit(
                name,
                occ_delta * scale,
                int(round(exch_delta * scale)),
            )
        scheduler = cell.scheduler
        for name, queue in scheduler.queues.items():
            queue.dropped += int(round(
                (queue.dropped - snap.drops.get(name, 0)) * scale
            ))
        if snap.fifo_dropped is not None:
            scheduler.fifo_dropped += int(round(
                (scheduler.fifo_dropped - snap.fifo_dropped) * scale
            ))
        ap = cell.ap
        wire = ap.downlink_wire
        wire.delivered += int(round(
            (wire.delivered - snap.wire_delivered) * scale
        ))
        ap.downlink_packets += int(round(
            (ap.downlink_packets - snap.downlink_packets) * scale
        ))
        cell.channel._busy_accum += (
            self._channel_busy_us() - snap.busy_us
        ) * scale
        buckets = getattr(scheduler, "buckets", None)
        if buckets is not None:
            for name, bucket in buckets.items():
                spend = bucket.spent_us - snap.spent_us.get(name, 0.0)
                bucket.spent_us += spend * scale
                bucket.filled_us += bucket.rate * delta
            # The skipped interval's ADJUSTRATEEVENTs never fire (their
            # timer phase shifts past them); in steady state they would
            # have re-recorded the converged rates, so the history gets
            # one entry per skipped window.
            interval = scheduler.config.adjust_interval_us
            if interval > 0:
                rates = {
                    name: bucket.rate for name, bucket in buckets.items()
                }
                for _ in range(int(delta // interval)):
                    scheduler.rate_history.append(dict(rates))
