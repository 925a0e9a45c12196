"""Cross-cell invariants for campus runs.

Composes one per-cell :class:`~repro.sim.sanitizer.RuntimeSanitizer`
(its TBR accounting walk — rates non-negative, per-cell sum ≈ 1, token
balances bounded, no stranded live share) with the campus-level checks
only an ESS can break:

* **single membership** — every station is a member of exactly one
  cell, and its MAC is attached to exactly that cell's channel;
* **no delivery into a departed cell** — the kernel never fires an
  event on a MAC that detached from its channel (a roam's source-side
  teardown must be complete);
* **per-cell packet conservation** — at end of run every cell's packet
  pool balances to zero, individually, so a roam cannot launder a leak
  from one cell into another's surplus.

Like the single-cell sanitizer it attaches as one of the kernel's
observers (:meth:`repro.sim.kernel.Simulator.observe`) and is
observation only: no RNG draws, no scheduling, no mutation — a
sanitized campus run is byte-identical to an unsanitized one.  It
certifies no fast-forward jump: the engine never jumps a campus of
more than one cell, so a jump under this sanitizer is a violation.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.sim.sanitizer import (
    _BENIGN_DETACHED,
    CHECK_INTERVAL_US,
    InvariantViolation,
    RuntimeSanitizer,
    live_pooled_packets,
    pool_leak,
)


class CampusSanitizer:
    """Invariant checks for a whole campus, as a kernel observer."""

    def __init__(self, campus: Any) -> None:
        from repro.mac.dcf import DcfMac

        self.campus = campus
        self._mac_type = DcfMac
        #: uninstalled per-cell sanitizers, reused for their TBR walk.
        self._cell_checkers: Dict[str, RuntimeSanitizer] = {
            name: RuntimeSanitizer(cell)
            for name, cell in campus.cells.items()
        }
        self._last_time = float("-inf")
        self._next_check = float("-inf")
        self.events_seen = 0
        self.checks_run = 0

    # ------------------------------------------------------------------
    def install(self) -> "CampusSanitizer":
        self.campus.sim.observe(self)
        return self

    def uninstall(self) -> None:
        self.campus.sim.unobserve(self)

    # ------------------------------------------------------------------
    def on_fast_forward(self, old_now: float, new_now: float) -> None:
        """No check certifies a multi-cell jump yet: any jump is loud."""
        raise InvariantViolation(
            "kernel", new_now,
            f"fast-forward jump from {old_now:.3f}us on a campus, which "
            "no campus invariant certifies",
        )

    def on_event(self, time: float, callback: Any) -> None:
        self.events_seen += 1
        if time < self._last_time:
            raise InvariantViolation(
                "kernel", time,
                f"event time regressed ({self._last_time:.3f}us -> "
                f"{time:.3f}us)",
            )
        self._last_time = time

        # A MAC holds a reference to its own cell's channel, so the
        # detached check is cell-correct for free: a station that
        # roamed away must not receive anything in the cell it left.
        target = getattr(callback, "__self__", None)
        if isinstance(target, self._mac_type):
            if not target.channel.is_attached(target):
                name = getattr(callback, "__name__", "?")
                if name not in _BENIGN_DETACHED:
                    raise InvariantViolation(
                        f"mac/{target.address}", time,
                        f"event {name!r} delivered to a detached MAC",
                    )

        if time >= self._next_check:
            self._next_check = time + CHECK_INTERVAL_US
            self._check_campus(time)

    # ------------------------------------------------------------------
    def _check_campus(self, time: float) -> None:
        self.checks_run += 1
        # Per-cell TBR accounting (rates >= 0, sum ~ 1, balances
        # bounded, live share whole) through the uninstalled per-cell
        # checkers — their walk reads cell.stations, which is exactly
        # the per-cell membership.
        for checker in self._cell_checkers.values():
            checker._check_tbr(time)

        # Single membership: the campus map and the cells' own station
        # tables must agree — a station lives in exactly one cell, and
        # its MAC is attached to that cell's channel.
        membership = self.campus.membership
        seen: Dict[str, str] = {}
        for cell_name, cell in self.campus.cells.items():
            for station_name, station in cell.stations.items():
                if station_name in seen:
                    raise InvariantViolation(
                        f"campus/{station_name}", time,
                        f"member of two cells ({seen[station_name]!r} "
                        f"and {cell_name!r})",
                    )
                seen[station_name] = cell_name
                if membership.get(station_name) != cell_name:
                    raise InvariantViolation(
                        f"campus/{station_name}", time,
                        f"cell {cell_name!r} holds the station but the "
                        f"membership map says "
                        f"{membership.get(station_name)!r}",
                    )
                if not cell.channel.is_attached(station.mac):
                    raise InvariantViolation(
                        f"campus/{station_name}", time,
                        f"member of {cell_name!r} but its MAC is not "
                        "attached to the cell's channel",
                    )
        for station_name, cell_name in membership.items():
            if station_name not in seen:
                raise InvariantViolation(
                    f"campus/{station_name}", time,
                    f"membership map names {cell_name!r} but no cell "
                    "holds the station",
                )

    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Per-cell packet conservation at end of run."""
        self.uninstall()
        for cell_name, cell in self.campus.cells.items():
            leak = pool_leak(cell)
            if leak != 0:
                pool = cell.ap.packet_pool
                raise InvariantViolation(
                    f"packet-pool/{cell_name}", self.campus.sim.now,
                    f"{leak:+d} pooled packets unaccounted for "
                    f"(allocated={pool.allocated} reused={pool.reused} "
                    f"recycled={pool.recycled}, "
                    f"live={len(live_pooled_packets(cell))})",
                )
        self._check_campus(self.campus.sim.now)
