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
delivered to the *carrier-subscribed* listeners only, held as a tuple in
attach order that :meth:`carrier_subscribe` / :meth:`carrier_unsubscribe`
replace by inserting or cutting one entry (a contending MAC leaves and
re-joins once per exchange, so the set is never re-sorted and a fan-out
in progress keeps iterating the tuple it started with).  A listener that
does not currently contend unsubscribes from carrier transitions
entirely — it can still read :attr:`carrier_busy` / :attr:`idle_start`
at decision time.  Listeners are subscribed by default, so
implementations unaware of the subscription API keep the historical
behavior.  Delivery order is always attachment order, regardless of
subscription churn, which keeps simulations byte-for-byte deterministic.

Frame-end delivery similarly runs off a snapshot of
``(attach_index, address, on_frame_end)`` triples rebuilt on attach.
A MAC that only needs frame-end notifications when it is *involved* can
opt into filtered delivery (:meth:`frame_end_filtered`): a clean
unicast frame is then delivered to its destination (O(1) address
lookup) and to the listeners whose EIFS state must be cleared
(:meth:`eifs_mark`), instead of to all N listeners.  Broadcast frames
are delivered to everyone, and so are corrupted (collided) ones —
every observer's EIFS/receive state depends on them — except to a
filtered listener that is already EIFS-marked and is not the
destination: the frame can teach it nothing it has not recorded.
Delivery order remains attachment order in every case.

Carrier edges are delivered only when a listener's state can depend on
them.  A receiver that owes a SIFS response reserves it
(:meth:`Channel.reserve_response`), and the busy->idle edge of the frame
that just ended and the idle->busy edge of the response are then
withheld together — the *response hold*; its contract sits beside the
state that implements it, in :meth:`Channel.__init__`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Protocol, Tuple, TYPE_CHECKING

from repro.sim import EventCategory, Simulator, EventPriority

if TYPE_CHECKING:  # pragma: no cover
    from repro.mac.frames import Frame

#: Broadcast destination address (== repro.mac.frames.BROADCAST; kept
#: literal here so the channel does not import the MAC package).
_BROADCAST = "*"

#: Frame-end priority and category as plain ``int``s: an ``IntEnum``
#: member costs the kernel an ``int()`` per push and an ``__index__``
#: per executed event, and this is the busiest schedule site there is.
_PRIO_PHY = int(EventPriority.PHY)
_CAT_PHY = int(EventCategory.PHY)

#: ``_response_at`` of a medium nobody has reserved: before any clock.
_NEVER = float("-inf")


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

    #: Busy/idle marks, the deaf-after-transmit window, a reserved
    #: response's start and in-flight frame boundaries all move with the
    #: clock (``repro.sim.steady``), so a jump taken mid-exchange — or
    #: inside a response hold — resumes with identical timing.
    TIME_STATE = dict(
        clocks=("busy_start", "idle_start", "_last_tx_end", "_response_at"),
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
        #: carrier-subscribed listeners as ``(attach index, listener)``
        #: in attach order; replaced, never mutated (see module docstring).
        self._carrier_subs: Tuple[Tuple[int, ChannelListener], ...] = ()
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
        #: The response hold stretches that window across events.  WHO:
        #: a receiver committed to transmit at a known instant at most
        #: SIFS after the frame end it is handling reserves it
        #: (:meth:`reserve_response`, here and on every coupled medium).
        #: WHAT: a medium that goes idle with a live reservation sets
        #: ``_idle_deferred`` instead of fanning out ``on_idle``, reads
        #: ``carrier_busy`` True meanwhile, and the next transmission to
        #: begin on it clears the mark instead of fanning out
        #: ``on_busy`` — ``busy``, the timestamps, the accumulators,
        #: collisions and frame-end delivery are untouched.  WHY it
        #: cannot be observed: the gap is at most SIFS, and SIFS < DIFS
        #: <= every IFS, so a countdown armed at the withheld idle edge
        #: could not have expired or advanced a slot before the withheld
        #: busy edge froze it again with its slot count unchanged.
        #: OBLIGATION: a reserver that will not transmit after all calls
        #: :meth:`cancel_response`, which delivers the withheld edge.
        #: ``_response_at`` is a timestamp rather than a flag so that a
        #: reservation expires by itself: one made after this medium's
        #: copy of the frame already ended (a roamed receiver answering
        #: cross-cell) or never honoured can defer nothing later.
        self._response_at = _NEVER
        self._idle_deferred = False
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
        self._carrier_subs += ((index, listener),)
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
        if id(listener) not in self._attach_index:
            return
        self.carrier_unsubscribe(listener)
        index = self._attach_index.pop(id(listener))
        self.listeners.remove(listener)
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
        destination, the frame was broadcast, the frame was corrupted
        and it is not EIFS-marked yet, or it asked for the next clean
        frame via :meth:`eifs_mark`.  Only safe for MACs (like
        :class:`repro.mac.dcf.DcfMac`) whose handler is a pure no-op for
        clean unicast frames addressed elsewhere once their EIFS flag
        is clear, and for corrupted ones addressed elsewhere while it
        is set.
        """
        index = self._attach_index[id(listener)]
        entry = self._frame_end_always.pop(index, None)
        if entry is not None:
            self._by_address[listener.address] = entry
            self._rebuild_frame_end_snapshots()

    def eifs_mark(self, listener: ChannelListener) -> None:
        """A filtered listener entered EIFS state: deliver the next
        clean frame to it so it can observe the medium recovering, and
        no further corrupted ones addressed elsewhere.  (An unfiltered
        listener hears everything regardless and is not recorded.)"""
        index = self._attach_index[id(listener)]
        if index not in self._frame_end_always:
            self._eifs_dirty[index] = (
                index, listener.address, listener.on_frame_end
            )

    def eifs_unmark(self, listener: ChannelListener) -> None:
        """A filtered listener cleared its EIFS state."""
        self._eifs_dirty.pop(self._attach_index[id(listener)], None)

    def carrier_subscribe(self, listener: ChannelListener) -> None:
        """(Re)enable busy/idle notifications for ``listener``."""
        index = self._attach_index[id(listener)]
        subs = self._carrier_subs
        position = len(subs)
        while position and subs[position - 1][0] >= index:
            position -= 1
        if position == len(subs) or subs[position][0] != index:
            self._carrier_subs = (
                subs[:position] + ((index, listener),) + subs[position:]
            )

    def carrier_unsubscribe(self, listener: ChannelListener) -> None:
        """Stop busy/idle notifications for ``listener``.

        For nodes that are not currently contending: they can read
        :attr:`carrier_busy` and :attr:`idle_start` on demand instead of
        paying for every transition.  ``on_frame_end`` is unaffected.
        """
        index = self._attach_index[id(listener)]
        subs = self._carrier_subs
        for position, entry in enumerate(subs):
            if entry[0] == index:
                self._carrier_subs = subs[:position] + subs[position + 1:]
                return

    def add_sniffer(self, sniffer: Callable) -> None:
        """Register ``sniffer(frame, corrupted, start, end)`` observers."""
        self._sniffers.append(sniffer)

    @property
    def busy(self) -> bool:
        return bool(self.active)

    @property
    def carrier_busy(self) -> bool:
        """The carrier state an unsubscribed listener should act on.

        Identical to :attr:`busy` except while the idle notifications
        of the transmission that emptied the medium are outstanding —
        during its frame-end broadcast, and across a response hold —
        where it stays True, matching what a subscribed listener
        believes at that point.
        """
        return bool(self.active) or self._idle_pending or self._idle_deferred

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

    def reserve_response(self, at: float) -> None:
        """A listener here is committed to begin transmitting at ``at``.

        For a receiver that owes a response at most SIFS after the frame
        end it is handling (``at <= now + SIFS``).  Until ``at``, this
        medium and its coupled neighbours — exactly the media the
        response will begin on — withhold carrier edges as the response
        hold describes (:meth:`__init__`).  A caller that then will not
        transmit must :meth:`cancel_response`.
        """
        self._response_at = at
        for other in self._coupled:
            other._response_at = at

    def cancel_response(self) -> None:
        """The reserved response will not be sent: release the hold.

        Every medium :meth:`reserve_response` reached forgets its
        reservation — whoever made it: delivering an edge is always
        correct, only withholding one needs a reason — and one that
        deferred its idle edge delivers it now.  Listeners get the true
        ``idle_start``, so they arm as if told on time.
        """
        for medium in (self, *self._coupled):
            medium._response_at = _NEVER
            if medium._idle_deferred:
                medium._idle_deferred = False
                idle_start = medium.idle_start
                for _, sub in medium._carrier_subs:
                    sub.on_idle(idle_start)

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
        sim = self.sim
        now = sim.now
        end = now + duration
        src = frame.src
        tx = Transmission(frame, src, now, end)
        last_tx_end = self._last_tx_end
        if last_tx_end.get(src, 0.0) < end:
            last_tx_end[src] = end
        active = self.active
        was_idle = not active
        if not was_idle:
            # Overlap: everyone still in the air (and the newcomer) collides.
            survivors = self._apply_capture(tx)
            for other in active:
                if other not in survivors:
                    other.collided = True
            if tx not in survivors:
                tx.collided = True
        active.append(tx)
        if was_idle:
            self.busy_start = now
            if self._idle_deferred:
                # Response hold: nobody was told the medium went idle,
                # so nobody is armed and nobody needs telling it is busy.
                self._idle_deferred = False
            else:
                for _, sub in self._carrier_subs:
                    sub.on_busy(now)
        # Frame-end events are fire-and-forget (never cancelled), so the
        # kernel may recycle the event objects.
        sim.schedule_transient(
            duration, self._end, tx, priority=_PRIO_PHY, category=_CAT_PHY
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
        # Broadcast frames concern every listener, and so do corrupted
        # ones, bar the filtered listeners already in EIFS state that
        # are not the destination (``settled``: their handler for one
        # more corrupted frame is a bare return).  A clean unicast frame
        # only matters to its destination, to the unfiltered listeners,
        # and to filtered listeners in EIFS state (their handler for it
        # is "clear EIFS and return") — delivering to just those turns
        # the O(listeners) loop into O(involved).
        src = frame.src
        dst = frame.dst
        deaf_after = tx.start + 1e-9
        last_end = self._last_tx_end.get
        settled = ()
        if collided:
            targets = self._frame_end_snapshot
            settled = self._eifs_dirty
        elif dst == _BROADCAST:
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
        for index, address, on_frame_end in targets:
            if address == src:
                continue
            if index in settled and address != dst:
                continue
            if last_end(address, 0.0) > deaf_after:
                continue
            on_frame_end(frame, dest_corrupted if address == dst else collided)

        if went_idle:
            self._idle_pending = False
            if self._response_at >= now:
                self._idle_deferred = True
            else:
                for _, sub in self._carrier_subs:
                    sub.on_idle(now)
