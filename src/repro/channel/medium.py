"""The broadcast medium.

All attached listeners (MAC entities) share one carrier.  The channel
tracks the set of in-flight transmissions:

* it is *busy* whenever at least one transmission is active;
* two transmissions that overlap in time corrupt each other (no capture
  by default; an optional capture callback can rescue the stronger
  frame);
* at the end of each transmission every listener is told about the
  frame (``on_frame_end``), with per-listener corruption flags — the
  intended receiver additionally samples the link loss model.

Timestamp conventions: ``on_busy(busy_start)`` is invoked synchronously
when the medium transitions idle->busy.  A MAC whose own transmit event
is scheduled for exactly ``busy_start`` is already committed to that slot
and must not treat the notification as carrier (slot-synchronous
collision, see ``repro.mac.dcf``).

Notification fan-out is the hot path of a large cell: every busy/idle
transition used to call into all N listeners even though only the
stations with an armed backoff do anything with it.  Transitions are now
delivered from a precomputed snapshot of *carrier-subscribed* listeners
(bound methods, rebuilt lazily when the subscription set changes), and a
listener that does not currently contend can unsubscribe from carrier
transitions entirely via :meth:`carrier_unsubscribe` — it can still read
:attr:`carrier_busy` / :attr:`idle_start` at decision time.  Listeners
are subscribed by default, so implementations unaware of the
subscription API keep the historical behavior.  Delivery order is
always attachment order, regardless of subscription churn, which keeps
simulations byte-for-byte deterministic.

Frame-end delivery similarly runs off a snapshot of
``(attach_index, address, on_frame_end)`` triples rebuilt on attach.
A MAC that only needs frame-end notifications when it is *involved* can
opt into filtered delivery (:meth:`frame_end_filtered`): a clean
unicast frame is then delivered to its destination (O(1) address
lookup) and to the listeners whose EIFS state must be cleared
(:meth:`eifs_mark`), instead of to all N listeners.  Corrupted
(collided) and broadcast frames are always delivered to everyone,
because every observer's EIFS/receive state depends on them.  Delivery
order remains attachment order in every case.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Protocol, Tuple, TYPE_CHECKING

from repro.sim import EventCategory, Simulator, EventPriority

if TYPE_CHECKING:  # pragma: no cover
    from repro.mac.frames import Frame

#: Broadcast destination address (== repro.mac.frames.BROADCAST; kept
#: literal here so the channel does not import the MAC package).
_BROADCAST = "*"


class ChannelListener(Protocol):
    """Interface a MAC exposes to the channel."""

    address: str

    def on_busy(self, busy_start: float) -> None:
        """Medium went idle -> busy at ``busy_start`` (== sim.now)."""

    def on_idle(self, idle_start: float) -> None:
        """Medium went busy -> idle at ``idle_start`` (== sim.now)."""

    def on_frame_end(self, frame: "Frame", corrupted: bool) -> None:
        """A transmission finished; ``corrupted`` is this listener's view."""


class Transmission:
    """One in-flight frame."""

    __slots__ = ("frame", "sender", "start", "end", "collided")

    TIME_STATE = dict(clocks=("start", "end"))

    def __init__(self, frame: "Frame", sender: str, start: float, end: float) -> None:
        self.frame = frame
        self.sender = sender
        self.start = start
        self.end = end
        self.collided = False


class Channel:
    """Zero-delay broadcast medium with overlap collisions."""

    #: Busy/idle marks, the deaf-after-transmit window and in-flight
    #: frame boundaries all move with the clock (``repro.sim.steady``),
    #: so a jump taken mid-exchange resumes with identical timing.
    TIME_STATE = dict(
        clocks=("busy_start", "idle_start", "_last_tx_end"),
        counters=("_busy_accum",),
        parts=("active",),
    )

    def __init__(self, sim: Simulator, loss_model=None) -> None:
        from repro.channel.loss import NoLoss

        self.sim = sim
        self.loss = loss_model if loss_model is not None else NoLoss()
        self.listeners: List[ChannelListener] = []
        self.active: List[Transmission] = []
        self._last_tx_end: dict = {}
        self.busy_start: Optional[float] = None
        #: when the medium last became idle (0.0 at t=0: born idle).
        self.idle_start: float = 0.0
        self._busy_accum = 0.0
        self._sniffers: List[Callable] = []
        #: optional capture: callable(winner_candidates) -> Transmission or
        #: None; invoked on overlap, may spare one frame from collision.
        self.capture_rule: Optional[Callable] = None

        # --- notification snapshots -----------------------------------
        #: attach index per listener (delivery order is attach order).
        #: Indices are a monotonically increasing sequence, never
        #: reused, so detaching a listener leaves every other
        #: listener's delivery position untouched.
        self._attach_index: Dict[int, int] = {}
        self._attach_seq = 0
        #: carrier-subscribed listeners keyed by attach index.
        self._carrier_subs: Dict[int, ChannelListener] = {}
        self._carrier_snapshot: Tuple[Tuple[Callable, Callable], ...] = ()
        self._carrier_dirty = False
        #: (index, address, on_frame_end) for every attached listener.
        self._frame_end_entries: Dict[int, Tuple[int, str, Callable]] = {}
        #: same entries as a tuple in attach order (corrupted/broadcast
        #: frames are delivered to everyone).
        self._frame_end_snapshot: Tuple[Tuple[int, str, Callable], ...] = ()
        #: listeners receiving *every* frame end, keyed by attach index
        #: (those that did not opt into filtered delivery).
        self._frame_end_always: Dict[int, Tuple[int, str, Callable]] = {}
        self._frame_end_always_snapshot: Tuple[Tuple[int, str, Callable], ...] = ()
        #: filtered listeners by MAC address (clean-unicast fast path).
        self._by_address: Dict[str, Tuple[int, str, Callable]] = {}
        #: filtered listeners currently in EIFS state: they must hear
        #: about the next clean frame to clear it.
        self._eifs_dirty: Dict[int, Tuple[int, str, Callable]] = {}
        #: True while on_frame_end notifications for a just-finished
        #: transmission are being delivered and the idle notification is
        #: still outstanding; carrier_busy stays True for that window so
        #: unsubscribed listeners observe the same "busy until told
        #: otherwise" state the per-listener on_idle callbacks provide.
        self._idle_pending = False
        #: co-channel neighbours (see :meth:`couple`): media that hear
        #: every transmission started here as foreign interference.
        self._coupled: List["Channel"] = []

    # ------------------------------------------------------------------
    def attach(self, listener: ChannelListener) -> None:
        if listener in self.listeners:
            raise ValueError(f"listener {listener!r} already attached")
        index = self._attach_seq
        self._attach_seq += 1
        self.listeners.append(listener)
        self._attach_index[id(listener)] = index
        self._carrier_subs[index] = listener
        self._carrier_dirty = True
        entry = (index, listener.address, listener.on_frame_end)
        self._frame_end_entries[index] = entry
        self._frame_end_always[index] = entry
        self._rebuild_frame_end_snapshots()

    def detach(self, listener: ChannelListener) -> None:
        """Remove ``listener`` from every notification structure.

        The inverse of :meth:`attach` (station disassociation): carrier
        transitions, frame-end deliveries and EIFS bookkeeping all stop.
        Remaining listeners keep their original delivery positions; a
        listener attached later (re-association) goes to the end of the
        delivery order.  A transmission the listener already put on the
        air still ends normally.  No-op when not attached.
        """
        index = self._attach_index.pop(id(listener), None)
        if index is None:
            return
        self.listeners.remove(listener)
        if self._carrier_subs.pop(index, None) is not None:
            self._carrier_dirty = True
        self._frame_end_entries.pop(index, None)
        self._frame_end_always.pop(index, None)
        self._eifs_dirty.pop(index, None)
        entry = self._by_address.get(listener.address)
        if entry is not None and entry[0] == index:
            del self._by_address[listener.address]
        self._rebuild_frame_end_snapshots()

    def is_attached(self, listener: ChannelListener) -> bool:
        return id(listener) in self._attach_index

    def _rebuild_frame_end_snapshots(self) -> None:
        self._frame_end_snapshot = tuple(
            entry for _, entry in sorted(self._frame_end_entries.items())
        )
        self._frame_end_always_snapshot = tuple(
            entry for _, entry in sorted(self._frame_end_always.items())
        )

    def frame_end_filtered(self, listener: ChannelListener) -> None:
        """Opt ``listener`` into filtered frame-end delivery.

        The listener then hears about a frame end only when it is the
        destination, the frame was corrupted or broadcast, or it asked
        for the next clean frame via :meth:`eifs_mark`.  Only safe for
        MACs (like :class:`repro.mac.dcf.DcfMac`) whose handler is a
        pure no-op for clean unicast frames addressed elsewhere once
        their EIFS flag is clear.
        """
        index = self._attach_index[id(listener)]
        entry = self._frame_end_always.pop(index, None)
        if entry is not None:
            self._by_address[listener.address] = entry
            self._rebuild_frame_end_snapshots()

    def eifs_mark(self, listener: ChannelListener) -> None:
        """A filtered listener entered EIFS state: deliver the next
        clean frame to it so it can observe the medium recovering."""
        index = self._attach_index[id(listener)]
        self._eifs_dirty[index] = (
            index, listener.address, listener.on_frame_end
        )

    def eifs_unmark(self, listener: ChannelListener) -> None:
        """A filtered listener cleared its EIFS state."""
        self._eifs_dirty.pop(self._attach_index[id(listener)], None)

    def carrier_subscribe(self, listener: ChannelListener) -> None:
        """(Re)enable busy/idle notifications for ``listener``."""
        index = self._attach_index[id(listener)]
        if index not in self._carrier_subs:
            self._carrier_subs[index] = listener
            self._carrier_dirty = True

    def carrier_unsubscribe(self, listener: ChannelListener) -> None:
        """Stop busy/idle notifications for ``listener``.

        For nodes that are not currently contending: they can read
        :attr:`carrier_busy` and :attr:`idle_start` on demand instead of
        paying for every transition.  ``on_frame_end`` is unaffected.
        """
        index = self._attach_index[id(listener)]
        if self._carrier_subs.pop(index, None) is not None:
            self._carrier_dirty = True

    def _carrier_callbacks(self) -> Tuple[Tuple[Callable, Callable], ...]:
        if self._carrier_dirty:
            self._carrier_snapshot = tuple(
                (sub.on_busy, sub.on_idle)
                for _, sub in sorted(self._carrier_subs.items())
            )
            self._carrier_dirty = False
        return self._carrier_snapshot

    def add_sniffer(self, sniffer: Callable) -> None:
        """Register ``sniffer(frame, corrupted, start, end)`` observers."""
        self._sniffers.append(sniffer)

    @property
    def busy(self) -> bool:
        return bool(self.active)

    @property
    def carrier_busy(self) -> bool:
        """The carrier state an unsubscribed listener should act on.

        Identical to :attr:`busy` except during the frame-end broadcast
        of the transmission that empties the medium, where it stays True
        until the idle notifications have gone out — matching what a
        subscribed listener believes at that point in the event.
        """
        return bool(self.active) or self._idle_pending

    def busy_fraction(self) -> float:
        """Fraction of elapsed simulation time the medium was busy."""
        total = self.sim.now
        if total <= 0:
            return 0.0
        accum = self._busy_accum
        if self.busy and self.busy_start is not None:
            accum += self.sim.now - self.busy_start
        return accum / total

    # ------------------------------------------------------------------
    def couple(self, other: "Channel") -> None:
        """Make ``other`` overhear every transmission started here.

        Co-channel interference between cells on the same RF channel: a
        frame put on this medium also *begins* on ``other`` — marking it
        busy, colliding with whatever is on the air there, and ending at
        the same instant — without this medium hearing anything back.
        Couple both directions for symmetric interference (the campus
        layer does).  Addresses must be unique across coupled media: a
        foreign clean unicast finds no local destination, so it costs
        carrier time but delivers nothing.
        """
        if other is self:
            raise ValueError("a channel cannot couple to itself")
        if other.sim is not self.sim:
            raise ValueError("coupled channels must share one simulator")
        if other not in self._coupled:
            self._coupled.append(other)

    def transmit(self, frame: "Frame", duration: float) -> Transmission:
        """Begin transmitting ``frame``; it ends ``duration`` us from now.

        Called by a MAC that has decided to transmit *this instant*.
        Collision marking and busy notification happen synchronously; the
        frame-end event is scheduled at PHY priority.  Coupled co-channel
        media (see :meth:`couple`) each begin their own copy of the
        transmission — one extra PHY frame-end event per neighbour.
        """
        tx = self._begin(frame, duration)
        for other in self._coupled:
            other._begin(frame, duration)
        return tx

    def _begin(self, frame: "Frame", duration: float) -> Transmission:
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration!r}")
        now = self.sim.now
        tx = Transmission(frame, frame.src, now, now + duration)
        prev_end = self._last_tx_end.get(frame.src, 0.0)
        self._last_tx_end[frame.src] = max(prev_end, tx.end)
        was_idle = not self.active
        if not was_idle:
            # Overlap: everyone still in the air (and the newcomer) collides.
            survivors = self._apply_capture(tx)
            for other in self.active:
                if other not in survivors:
                    other.collided = True
            if tx not in survivors:
                tx.collided = True
        self.active.append(tx)
        if was_idle:
            self.busy_start = now
            for on_busy, _ in self._carrier_callbacks():
                on_busy(now)
        # Frame-end events are fire-and-forget (never cancelled), so the
        # kernel may recycle the event objects.
        self.sim.schedule_transient(
            duration, self._end, tx,
            priority=EventPriority.PHY, category=EventCategory.PHY,
        )
        return tx

    def _apply_capture(self, newcomer: Transmission) -> List[Transmission]:
        if self.capture_rule is None:
            return []
        winner = self.capture_rule(list(self.active) + [newcomer])
        return [winner] if winner is not None else []

    # ------------------------------------------------------------------
    def abort(self, tx: Transmission) -> None:
        """Corrupt an in-flight transmission (its sender died mid-TX).

        The carrier keeps occupying the medium until the scheduled
        frame end — the energy is already on the air — but the frame is
        marked collided, so it delivers to no destination and observers
        see a corrupted frame end (EIFS recovery), exactly as if the
        transmitter's PLL had dropped out.  No-op for a transmission
        that already ended.
        """
        if tx in self.active:
            tx.collided = True

    def _end(self, tx: Transmission) -> None:
        self.active.remove(tx)
        now = self.sim.now
        went_idle = not self.active
        if went_idle:
            if self.busy_start is not None:
                self._busy_accum += now - self.busy_start
                self.busy_start = None
            self.idle_start = now
            self._idle_pending = True

        frame = tx.frame
        collided = tx.collided
        dest_corrupted = collided or self.loss.is_lost(frame)

        for sniffer in self._sniffers:
            sniffer(frame, dest_corrupted, collided, tx.start, tx.end)

        # Deliver frame-end notifications.  Non-destination observers
        # see collision corruption (they could not decode either) but not
        # the destination's private link loss.  A listener whose own
        # transmission overlapped this frame was half-duplex deaf and
        # receives nothing (in particular, a collided sender does not
        # observe the peer's corrupted frame and retries after DIFS, not
        # EIFS, exactly as a real station that decoded no energy).
        #
        # Corrupted and broadcast frames concern every listener.  A
        # clean unicast frame only matters to its destination, to the
        # unfiltered listeners, and to filtered listeners in EIFS state
        # (their handler for it is "clear EIFS and return") — delivering
        # to just those turns the O(listeners) loop into O(involved).
        src = frame.src
        dst = frame.dst
        deaf_after = tx.start + 1e-9
        last_end = self._last_tx_end.get
        if collided or dst == _BROADCAST:
            targets = self._frame_end_snapshot
        else:
            always = self._frame_end_always_snapshot
            dirty = self._eifs_dirty
            dst_entry = self._by_address.get(dst)
            if not dirty:
                # Common case in all-DCF cells: no EIFS stragglers and
                # (usually) no unfiltered listeners — deliver straight
                # to the destination without building a merged dict.
                if dst_entry is None:
                    targets = always
                elif not always:
                    targets = (dst_entry,)
                else:
                    merged = {entry[0]: entry for entry in always}
                    merged[dst_entry[0]] = dst_entry
                    targets = [e for _, e in sorted(merged.items())]
            else:
                merged = {entry[0]: entry for entry in always}
                if dst_entry is not None:
                    merged[dst_entry[0]] = dst_entry
                merged.update(dirty)
                targets = [entry for _, entry in sorted(merged.items())]
        for _, address, on_frame_end in targets:
            if address == src:
                continue
            if last_end(address, 0.0) > deaf_after:
                continue
            on_frame_end(frame, dest_corrupted if address == dst else collided)

        if went_idle:
            self._idle_pending = False
            for _, on_idle in self._carrier_callbacks():
                on_idle(now)
