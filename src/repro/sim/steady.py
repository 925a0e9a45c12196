"""Steady-state detection and analytic fast-forward.

Saturated cells spend almost all simulated time in a periodic steady
state: every backlogged station's queue stays pegged, the AP drains at a
fixed per-station cycle, and nothing structural changes until the next
timeline perturbation.  Grinding through every DCF/PHY event of such a
stretch costs O(packets); this module collapses it to O(transitions).

There is one mechanism for skipping time, in three parts:

* **declarations** — a class that holds time-dependent state says so
  once, where the state lives, in a ``TIME_STATE`` class attribute (all
  keys optional; a subclass declares only what it adds)::

      TIME_STATE = dict(
          clocks=("_bo_anchor",),      # absolute timestamps: shift by Δ
          counters=("tx_attempts",),   # accumulators: scale window growth
          parts=("buckets",),          # attributes holding more time state
          exact={"filled_us": "fill_skipped"},  # attr -> method(delta_us)
          phase={"tokens_us": "why a jump leaves it alone"},
      )

* **the walker** — :func:`time_state` follows ``parts`` from a root and
  is the only code that interprets declarations: :func:`shift_clocks`,
  :func:`read_counters` and :func:`credit_counters`.  ``phase`` is
  documentation that ``tests/test_steady_completeness.py`` enforces:
  any numeric attribute that moves over a window must be declared.
* :class:`FastForwardEngine` — certifies a calibration window only when
  the workload is *provably* in the regime the paper's analytic model
  describes: saturated downlink UDP, stable membership (keyed on object
  identity, never station names), zero MAC retries, and measured
  occupancy shares that agree with ``analysis.model``'s DCF/TBR share
  equations (Eqs 4 and 11, weighted variants included).  A certified
  jump is "credit the ledger, shift the ledger, shift the heap"
  (:meth:`Simulator.fast_forward_to`); a declined window is counted by
  reason in :attr:`FastForwardEngine.declines`.

A jump never crosses a pending timeline event (category OTHER is pinned
in the kernel), never happens within :data:`MIN_SKIP_US` of one, and
anything the detector cannot certify (more than one cell, TCP flows,
churn, chaos, loss windows, rate switches mid-window) simply runs
event-by-event, byte-identical to a run without the flag.

Enable with ``REPRO_FASTFWD=1`` (or ``fast_forward=True`` on
``ScenarioRuntime``/``run_spec``); see EXPERIMENTS.md "Fast-forward".
"""

from __future__ import annotations

import os
from collections import Counter, deque
from types import SimpleNamespace
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.sim.event import EventCategory
from repro.sim.units import us_from_s

#: environment toggle: "1"/"true"/"yes"/"on" enable fast-forward.
FASTFWD_ENV = "REPRO_FASTFWD"

_TRUTHY = {"1", "true", "yes", "on"}

#: default event-by-event measurement window before each jump decision.
CALIBRATION_US = 400_000.0
#: smallest interval worth synthesizing; anything closer to the next
#: timeline event (or the horizon) runs event-by-event.  Also the reason
#: short golden windows are byte-identical under the flag: a window
#: shorter than ``CALIBRATION_US + MIN_SKIP_US`` can never jump.
MIN_SKIP_US = 1_000_000.0
#: absolute tolerance between measured occupancy shares and the analytic
#: model's prediction (loose: the model gates *regime* membership, the
#: measured rates drive the synthesis).
SHARE_TOLERANCE = 0.2
#: max backlog drift across the window still called stable: the larger
#: of this packet count and half the starting backlog (a shared
#: drop-tail FIFO keeps per-station backlogs pegged only in aggregate —
#: individual stations legitimately swing by a dozen packets while the
#: cell is perfectly steady).
BACKLOG_JITTER = 4


def fastforward_enabled() -> bool:
    """Is fast-forward requested via the environment?"""
    return os.environ.get(FASTFWD_ENV, "").strip().lower() in _TRUTHY


# ----------------------------------------------------------------------
# the walker: the only code that interprets TIME_STATE declarations
# ----------------------------------------------------------------------
def time_state(root: Any) -> Iterator[Tuple[Any, Dict[str, Any]]]:
    """Yield ``(obj, declaration)`` for ``root`` and everything its
    declared ``parts`` reach (objects, or dicts / sequences of them):
    each object once, one pair per declaring class in its MRO."""
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if obj is None or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, deque)):
            stack.extend(obj)
        else:
            for klass in type(obj).__mro__:
                decl = klass.__dict__.get("TIME_STATE")
                if decl is not None:
                    yield obj, decl
                    for name in decl.get("parts", ()):
                        stack.append(getattr(obj, name))


def _shifted(value: Any, delta_us: float) -> Any:
    if value is None:  # an unset mark (``stop_us``, ``busy_start``)
        return None
    if isinstance(value, tuple):  # a time-keyed ``(fire_us, ...)`` entry
        return (value[0] + delta_us,) + value[1:]
    return value + delta_us


def shift_clocks(root: Any, delta_us: float) -> None:
    """Move every declared clock under ``root`` by ``delta_us``.

    The shift is uniform, so time-keyed heaps stay ordered and every
    relative distance (backoff anchor to countdown event, fold record to
    wire clock) is preserved verbatim.
    """
    for obj, decl in time_state(root):
        for attr in decl.get("clocks", ()):
            value = getattr(obj, attr)
            if isinstance(value, dict):
                for key in value:
                    value[key] += delta_us
            elif isinstance(value, list):
                value[:] = [_shifted(item, delta_us) for item in value]
            else:
                setattr(obj, attr, _shifted(value, delta_us))


def read_counters(root: Any) -> Dict[Tuple[int, str], Any]:
    """Snapshot every declared counter under ``root``."""
    values = {}
    for obj, decl in time_state(root):
        for attr in decl.get("counters", ()):
            value = getattr(obj, attr)
            if isinstance(value, dict):
                value = dict(value)
            values[id(obj), attr] = value
    return values


def _credited(now: Any, before: Any, scale: float) -> Any:
    growth = (now - before) * scale
    return now + (int(round(growth)) if isinstance(now, int) else growth)


def credit_counters(
    root: Any, before: Dict[Tuple[int, str], Any], scale: float,
    delta_us: float,
) -> None:
    """Fold ``delta_us`` of steady state into every counter under ``root``.

    Each counter grows by ``scale`` (``delta_us / window``) times its
    growth since ``before``, the :func:`read_counters` snapshot from the
    calibration window's start; ``int`` counters by the rounded product
    (one packet of rounding error per jump, bounded by the jump count,
    not the horizon).  ``exact`` contributions are not measured: their
    methods take ``delta_us`` itself.
    """
    for obj, decl in time_state(root):
        for attr in decl.get("counters", ()):
            now = getattr(obj, attr)
            was = before[id(obj), attr]
            if isinstance(now, dict):
                for key, value in now.items():
                    now[key] = _credited(value, was.get(key, 0), scale)
            else:
                setattr(obj, attr, _credited(now, was, scale))
        for method in decl.get("exact", {}).values():
            getattr(obj, method)(delta_us)


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class FastForwardEngine:
    """Runs a campus with analytic skips over certified steady stretches.

    Drop-in replacement for ``campus.run(seconds, warmup_seconds=...)``
    (:class:`repro.campus.core.Campus`): statically ineligible workloads
    (more than one cell; any non-UDP or non-downlink flow) fall back to
    exactly that call, recording why once in :attr:`declines`, and
    eligible ones interleave event-by-event calibration windows
    (``calibration_us`` each; longer trades wall-clock for synthesis
    accuracy) with synthesized jumps bounded by the next pending
    timeline event.
    """

    def __init__(self, campus, *, calibration_us: float = CALIBRATION_US) -> None:
        self.campus = campus
        cells = list(campus.cells.values())
        #: the cell the detector certifies and the walker credits: the
        #: lone one.  ``None`` on several — nothing yet certifies one
        #: cell of a coupled campus as a root for the walker.
        self.cell = cells[0] if len(cells) == 1 else None
        self.calibration_us = calibration_us
        #: jumps taken (mirrors ``sim.fast_forwards`` for this engine).
        self.jumps = 0
        #: calibration windows that did not end in a jump, by reason —
        #: and, counted once per run, why a run never calibrated at all.
        self.declines: Counter = Counter()
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
        if cell is None or not self._statically_eligible():
            self.declines["multi-cell" if cell is None else "flow-kind"] += 1
            self.campus.run(seconds, warmup_seconds=warmup_seconds)
            return
        if not self._listener_installed:
            cell.ap.mac.add_completion_listener(self._on_ap_exchange)
            self._listener_installed = True
        sim = cell.sim
        if warmup_seconds > 0:
            sim.run(until=sim.now + us_from_s(warmup_seconds))
            self.campus.reset_measurements()
        until = sim.now + us_from_s(seconds)
        while sim.now < until:
            window_start = sim.now
            snap = self._snapshot()
            sim.run(until=min(window_start + self.calibration_us, until))
            if sim.now >= until:
                break
            window = sim.now - window_start
            landmark = sim.next_pending(EventCategory.OTHER)
            target = until if landmark is None else min(landmark, until)
            delta = target - sim.now
            reason = self._decline_reason(snap, delta)
            if reason is not None:
                self.declines[reason] += 1
                continue
            credit_counters(cell, snap.counters, delta / window, delta)
            shift_clocks(cell, delta)
            sim.fast_forward_to(target)
            self.jumps += 1

    # ------------------------------------------------------------------
    # detector
    # ------------------------------------------------------------------
    def _snapshot(self) -> SimpleNamespace:
        """Detector inputs and the counter ledger at a window start."""
        cell = self.cell
        return SimpleNamespace(
            flow_ids=frozenset(id(flow) for flow in cell.flows),
            backlogs={
                name: cell.scheduler.backlog(name) for name in cell.stations
            },
            occupancy=cell.usage.occupancies_us(),
            bad_exchanges=self._bad_exchanges,
            timeline_events=cell.sim.events_by_category()["other"],
            counters=read_counters(cell),
        )

    def _decline_reason(
        self, snap: SimpleNamespace, delta_us: float
    ) -> Optional[str]:
        """Why the window since ``snap`` cannot seed a ``delta_us`` jump
        (``None``: it can)."""
        cell = self.cell
        if delta_us < MIN_SKIP_US:
            return "too-close-to-landmark"
        # (a) flow set unchanged and still all-eligible, with no source
        # stopped (a quiesced flow means churn/chaos touched the cell).
        flows = cell.flows
        if frozenset(id(flow) for flow in flows) != snap.flow_ids:
            return "flow-set"
        for flow in flows:
            if flow.kind != "udp" or flow.direction != "down":
                return "flow-kind"
            if getattr(flow.sender, "stop_us", None) is not None:
                return "source-stopped"
        # (b) membership stable across the window: the ledger is keyed
        # on *object identity* (station, queue, bucket, flow-end
        # instances), never on names — a station literally named
        # "steady" (the bursty family ships one) is just another station,
        # and a leave/rejoin under the same name changes the key set.
        if read_counters(cell).keys() != snap.counters.keys():
            return "membership"
        # (c) a timeline event fired *inside* the calibration window: the
        # measured rates blend the before/after regimes and must not
        # seed a synthesis (the very next window is clean again).
        if cell.sim.events_by_category()["other"] != snap.timeline_events:
            return "timeline-in-window"
        # (d) saturation: every station feeding a downlink flow stayed
        # backlogged, with only packet-level jitter (relative for large
        # backlogs — see BACKLOG_JITTER).
        for name in {flow.station.address for flow in flows}:
            before = snap.backlogs.get(name, 0)
            now = cell.scheduler.backlog(name)
            if before <= 0 or now <= 0:
                return "backlog"
            if abs(now - before) > max(BACKLOG_JITTER, before // 2):
                return "backlog"
        # (e) a clean channel: any retried or failed AP exchange in the
        # window (loss models, degrade windows, collisions) disqualifies.
        if self._bad_exchanges != snap.bad_exchanges:
            return "retries"
        # (f) the analytic model agrees this is its regime.
        if not self._shares_match_model(snap):
            return "share-model"
        return None

    def _shares_match_model(self, snap: SimpleNamespace) -> bool:
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
        for name in cell.stations:
            measured = deltas[name] / total
            if abs(measured - predicted[name]) > SHARE_TOLERANCE:
                return False
        return True
