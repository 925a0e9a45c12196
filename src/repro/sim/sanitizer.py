"""Runtime invariant sanitizer: make silent corruption loud.

The chaos events (AP outage, station crash, churn, loss bursts) tear
through every layer of the simulator, and the failure mode that matters
is never the crash itself — it is the *silent* inconsistency left
behind: a token rate stranded on a dead station, a pooled packet that
never came home, an event delivered to a MAC that already detached.
The sanitizer watches a run as one of the kernel's observers
(:meth:`repro.sim.kernel.Simulator.observe`: an attach-ordered tuple,
so a recorder or test probe can ride the same run beside it) and raises
a structured :class:`InvariantViolation` the moment an invariant
breaks, with the component and simulated time attached.

Checks (each documented on its method):

* event-time monotonicity — the kernel clock never runs backwards;
* no event delivery to detached MACs — a shut-down MAC must have
  cancelled everything it had pending;
* TBR accounting — token rates non-negative, the rate *sum* stays
  ``~1.0``, bucket balances never exceed their depth, and — the chaos
  headline — the share held by *live* (associated) stations is not
  persistently below 1: a crashed station whose bucket survives
  strands its rate and shrinks everyone else's ``1/n_active``;
* end-of-run packet conservation — every pooled packet is either back
  in its pool or still legitimately referenced (queued, loaded in a
  MAC, in flight on the channel); anything else is a leak.

The sanitizer is *observation only*: it draws no randomness, schedules
no events and mutates no simulation state, so an enabled run executes
the exact same event sequence as a disabled one — goldens and event
budgets are byte-identical either way.  Enable it per-run with
``ScenarioRuntime(spec, sanitize=True)``, the scenario CLI's
``--sanitize`` flag, or globally via ``REPRO_SANITIZE=1``.
"""

from __future__ import annotations

import os
from typing import Any, Iterator, List, Optional

#: Environment switch: ``1``/``true``/``yes`` enables the sanitizer for
#: every :class:`repro.scenario.builder.ScenarioRuntime` run.
SANITIZE_ENV = "REPRO_SANITIZE"

#: Guard-style MAC callbacks that legitimately fire after a shutdown
#: (they are scheduled fire-and-forget and open with an ``if
#: self._current is None: return`` guard): not violations.
_BENIGN_DETACHED = frozenset({"_transmit_burst_frame"})

#: Simulated time between two periodic accounting checks; a live-share
#: deficit over the tolerance is a violation after the grace.
CHECK_INTERVAL_US = 10_000.0
STRAND_GRACE_US = 2_000_000.0
STRAND_TOLERANCE = 0.01


def sanitize_enabled() -> bool:
    """True when :data:`SANITIZE_ENV` asks for sanitized runs."""
    return os.environ.get(SANITIZE_ENV, "").strip().lower() in (
        "1", "true", "yes",
    )


class InvariantViolation(AssertionError):
    """A runtime invariant broke: ``component`` at ``t_us``, ``detail``.

    Subclasses ``AssertionError`` so a violation fails a test run
    loudly even under harnesses that special-case assertion failures.
    """

    def __init__(self, component: str, t_us: float, detail: str) -> None:
        self.component = component
        self.t_us = t_us
        self.detail = detail
        super().__init__(
            f"[sanitize] {component} @ {t_us:.1f}us: {detail}"
        )


# ----------------------------------------------------------------------
# pooled-packet census (shared with the scenario runner's leak report)
# ----------------------------------------------------------------------
def _iter_scheduler_packets(scheduler: Any) -> Iterator[Any]:
    """Every packet currently queued in an AP scheduler, any discipline
    (per-station queues, plus the shared FIFO when there is one)."""
    for queue in getattr(scheduler, "queues", {}).values():
        yield from queue.queue
    fifo = getattr(scheduler, "_fifo", None)
    if fifo is not None:
        yield from fifo


def live_pooled_packets(cell: Any) -> List[Any]:
    """Pooled packets still legitimately alive in ``cell``.

    A pooled packet (one whose ``_pool`` is set — the release hand-off
    disowns it) may be: queued in the AP's downlink scheduler, loaded
    as the AP MAC's current frame, or riding an in-flight transmission
    on the channel.  Everything else must already be back in the pool.

    Only packets owned by *this cell's* pool count: on a campus, a
    coupled co-channel transmission appears in the neighbour's
    ``channel.active`` too, and crediting that foreign packet here
    would corrupt the neighbour's conservation arithmetic.
    """
    live = []
    seen = set()
    own_pool = cell.ap.packet_pool

    def note(packet: Any) -> None:
        if packet is None or id(packet) in seen:
            return
        if getattr(packet, "_pool", None) is own_pool:
            seen.add(id(packet))
            live.append(packet)

    for packet in _iter_scheduler_packets(cell.scheduler):
        note(packet)
    current = cell.ap.mac._current
    if current is not None:
        note(current.packet)
    for tx in cell.channel.active:
        note(tx.frame.packet)
    return live


def pool_leak(cell: Any) -> int:
    """Pooled packets unaccounted for: outstanding minus legitimately
    live.  0 on a healthy run; positive means packets were dropped on
    the floor without ``release()``; negative means a double-count in
    the census (both are bugs worth failing on)."""
    pool = cell.ap.packet_pool
    outstanding = pool.allocated + pool.reused - pool.recycled
    return outstanding - len(live_pooled_packets(cell))


# ----------------------------------------------------------------------
# the sanitizer
# ----------------------------------------------------------------------
class RuntimeSanitizer:
    """Invariant checks run as a kernel observer.

    Construct around a :class:`repro.node.cell.Cell`, :meth:`install`,
    run, then :meth:`finalize` for the end-of-run conservation checks.
    Per-event work is two attribute reads and a couple of comparisons;
    the heavier TBR accounting walk runs at most once per simulated
    :data:`CHECK_INTERVAL_US`.
    """

    def __init__(self, cell: Any) -> None:
        from repro.core.tbr import TbrScheduler
        from repro.mac.dcf import DcfMac

        self.cell = cell
        self._mac_type = DcfMac
        self._tbr = (
            cell.scheduler
            if isinstance(cell.scheduler, TbrScheduler)
            else None
        )
        self._last_time = float("-inf")
        self._next_check = float("-inf")
        #: when the live-share deficit was first observed (None = whole).
        self._strand_since: Optional[float] = None
        self.events_seen = 0
        self.checks_run = 0

    # ------------------------------------------------------------------
    def install(self) -> "RuntimeSanitizer":
        """Attach to the cell's kernel.  Call before ``run()`` — the
        run loop binds its observers once at entry."""
        self.cell.sim.observe(self)
        return self

    def uninstall(self) -> None:
        self.cell.sim.unobserve(self)

    # ------------------------------------------------------------------
    # fast-forward awareness
    # ------------------------------------------------------------------
    def on_fast_forward(self, old_now: float, new_now: float) -> None:
        """A sanctioned clock jump happened (kernel fast-forward).

        The monotonicity watermark advances to the jump target (a skip
        is not a regression), the periodic-check and strand clocks shift
        so skipped time does not count against their windows, and the
        full TBR accounting walk runs immediately at the boundary — the
        planner's synthesized token state (credited spend/fill, carried
        balances, shifted windows) must satisfy every normal-execution
        invariant, unweakened, the instant the skip lands.
        """
        delta = new_now - old_now
        self._last_time = new_now
        if self._next_check != float("-inf"):
            self._next_check += delta
        if self._strand_since is not None:
            self._strand_since += delta
        self._check_tbr(new_now)

    # ------------------------------------------------------------------
    # per-event hook
    # ------------------------------------------------------------------
    def on_event(self, time: float, callback: Any) -> None:
        self.events_seen += 1
        # Monotonicity: the heap's (time, priority, seq) order is a
        # total order, so time can never regress — if it does, either
        # the heap invariant or a negative-delay schedule broke.
        if time < self._last_time:
            raise InvariantViolation(
                "kernel", time,
                f"event time regressed ({self._last_time:.3f}us -> "
                f"{time:.3f}us)",
            )
        self._last_time = time

        # Detached-component delivery: a MAC that shut down cancelled
        # its backoff/ACK events and detached from the channel; any
        # non-guard event still firing on it escaped the teardown.
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
            self._check_tbr(time)

    # ------------------------------------------------------------------
    # periodic accounting checks
    # ------------------------------------------------------------------
    def _check_tbr(self, time: float) -> None:
        tbr = self._tbr
        if tbr is None:
            return
        self.checks_run += 1
        buckets = tbr.buckets
        if not buckets:
            self._strand_since = None
            return
        total = 0.0
        live = 0.0
        stations = self.cell.stations
        for name, bucket in buckets.items():
            if bucket.rate < 0:
                raise InvariantViolation(
                    f"tbr/{name}", time,
                    f"negative token rate {bucket.rate!r}",
                )
            # Balances legitimately go *negative* (COMPLETEEVENT
            # charges actual airtime after the fact; work-conserving
            # mode borrows unboundedly) but can never exceed depth —
            # fills are capped there.
            if bucket.tokens_us > bucket.depth_us + 1e-6:
                raise InvariantViolation(
                    f"tbr/{name}", time,
                    f"token balance {bucket.tokens_us:.1f}us exceeds "
                    f"bucket depth {bucket.depth_us:.1f}us",
                )
            total += bucket.rate
            if name in stations:
                live += bucket.rate
        if abs(total - 1.0) > 1e-6:
            raise InvariantViolation(
                "tbr", time,
                f"token rates sum to {total!r}, expected 1.0",
            )
        # Live-share strand: rate held by buckets of *dead* stations.
        # Transient while a failure is being detected (the reaper needs
        # its idle window), so only a deficit persisting past the grace
        # period is a violation — exactly the bug a crashed station
        # leaves behind when nothing reaps it.
        if live < 1.0 - STRAND_TOLERANCE:
            if self._strand_since is None:
                self._strand_since = time
            elif time - self._strand_since >= STRAND_GRACE_US:
                dead = sorted(set(buckets) - set(stations))
                raise InvariantViolation(
                    "tbr", time,
                    f"{1.0 - live:.3f} of token rate stranded on "
                    f"non-associated stations {dead} for "
                    f"{(time - self._strand_since) / 1e6:.2f}s "
                    "(dead-peer state never reaped)",
                )
        else:
            self._strand_since = None

    # ------------------------------------------------------------------
    # end-of-run checks
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Packet conservation at end of run.

        Every packet the AP's pool ever handed out must be back
        (``recycled``) or still legitimately referenced — queued in the
        downlink scheduler, loaded in the AP MAC, or in flight on the
        channel.  A nonzero remainder means some path dropped a packet
        without releasing it (the leak the chaos events are designed
        to provoke).
        """
        self.uninstall()
        leak = pool_leak(self.cell)
        if leak != 0:
            pool = self.cell.ap.packet_pool
            raise InvariantViolation(
                "packet-pool", self.cell.sim.now,
                f"{leak:+d} pooled packets unaccounted for "
                f"(allocated={pool.allocated} reused={pool.reused} "
                f"recycled={pool.recycled}, "
                f"live={len(live_pooled_packets(self.cell))})",
            )
