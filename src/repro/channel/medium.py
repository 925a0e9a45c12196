"""The broadcast medium.

All attached listeners (MAC entities) share one carrier.  The channel
tracks the set of in-flight transmissions:

* it is *busy* whenever at least one transmission is active;
* two transmissions that overlap in time corrupt each other, always:
  every frame in an overlap ends collided (no capture);
* at the end of each transmission the listeners it *involves* are told
  about the frame (``on_frame_end``), with per-listener corruption
  flags — the intended receiver of a clean frame additionally samples
  the link loss model, when one is installed (:attr:`Channel.loss`;
  ``None``, the default, is the ideal channel and draws nothing).

Timestamp conventions: ``on_busy(busy_start)`` is invoked synchronously
when the medium transitions idle->busy.  A MAC whose own transmit event
is scheduled for exactly ``busy_start`` is already committed to that slot
and must not treat the notification as carrier (slot-synchronous
collision, see ``repro.mac.dcf``).

Every listener gets one delivery contract, from :meth:`Channel.attach`
on:

* **Carrier edges** (``on_busy`` / ``on_idle``) go to the
  *carrier-subscribed* listeners only.  A listener starts unsubscribed
  and calls :meth:`carrier_subscribe` when it starts contending; a DCF
  MAC stays subscribed from its first backoff until a countdown expires
  with nothing to send (or it shuts down), its own exchanges included,
  and then calls :meth:`carrier_unsubscribe`.  An unsubscribed listener
  reads :attr:`carrier_busy` / :attr:`idle_start` at decision time.
  The subscribers are a tuple in attach order that those two calls
  replace by inserting or cutting one entry (so the set is never
  re-sorted, and a fan-out in progress keeps iterating the tuple it
  started with).
* **Frame ends** go to a listener only when it is *involved*: it is
  the destination (O(1) address lookup), or the frame was corrupted
  and the listener is not EIFS-marked, or it is EIFS-marked
  (:meth:`eifs_mark`) and the frame is clean — it must see the medium
  recover.  A listener's handler must therefore be a no-op for clean
  frames addressed elsewhere while unmarked, and for corrupted ones
  addressed elsewhere while marked.

Delivery order is always attachment order, regardless of subscription
churn, which keeps simulations byte-for-byte deterministic.

Carrier edges are delivered only when a listener's state can depend on
them.  A receiver that owes a SIFS response reserves it
(:meth:`Channel.reserve_response`), and the busy->idle edge of the frame
that just ended and the idle->busy edge of the response are then
withheld together — the *response hold*; its contract sits beside the
state that implements it, in :meth:`Channel.__init__`.

The medium is also the ledger of its own time: :attr:`Channel.busy_us`,
and each station's occupancy (the paper's T(i), Sections 2.3 and 4.2),
which :meth:`Channel.charge`, a MAC completion listener, credits with
every finished exchange's airtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Protocol, Tuple, TYPE_CHECKING

from repro.sim import EventCategory, Simulator, EventPriority

if TYPE_CHECKING:  # pragma: no cover
    from repro.mac.dcf import ExchangeReport
    from repro.mac.frames import Frame

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
        """Medium went idle -> busy at ``busy_start`` (== sim.now).

        Called only while the listener is carrier-subscribed, as is
        :meth:`on_idle`; a listener that never subscribes need not
        define either.
        """

    def on_idle(self, idle_start: float) -> None:
        """Medium went busy -> idle at ``idle_start`` (== sim.now)."""

    def on_frame_end(self, frame: "Frame", corrupted: bool) -> None:
        """A transmission that involves this listener finished;
        ``corrupted`` is this listener's view."""


@dataclass
class UsageRecord:
    """One completed MAC exchange (possibly several retries)."""

    time: float
    station: str
    airtime_us: float


class Transmission:
    """One in-flight frame."""

    __slots__ = ("frame", "start", "end", "collided")

    TIME_STATE = dict(clocks=("start", "end"))

    def __init__(self, frame: "Frame", start: float, end: float) -> None:
        self.frame = frame
        self.start = start
        self.end = end
        self.collided = False


class Channel:
    """Zero-delay broadcast medium with overlap collisions."""

    #: Busy/idle marks, the deaf-after-transmit window, a reserved
    #: response's start and in-flight frame boundaries all move with the
    #: clock (``repro.sim.steady``), so a jump taken mid-exchange — or
    #: inside a response hold — resumes with identical timing; a jump
    #: appends no ``records`` (there was no exchange to describe).
    TIME_STATE = dict(
        clocks=("busy_start", "idle_start", "_last_tx_end", "_response_at"),
        counters=("busy_us", "_occupancy_us"),
        parts=("active",),
        phase={"_busy_accum": "the store behind busy_us, which a jump credits"},
    )

    def __init__(self, sim: Simulator, loss_model=None) -> None:
        self.sim = sim
        #: the destination's link loss model (``None``: the ideal
        #: channel, consulted by nothing).
        self.loss = loss_model
        self.listeners: List[ChannelListener] = []
        self.active: List[Transmission] = []
        self._last_tx_end: dict = {}
        self.busy_start: Optional[float] = None
        #: when the medium last became idle (0.0 at t=0: born idle).
        self.idle_start: float = 0.0
        self._busy_accum = 0.0
        #: station -> attributed airtime (us) since the warm-up reset.
        self._occupancy_us: Dict[str, float] = {}
        #: one :class:`UsageRecord` per charge, when a reader sets a list.
        self.records: Optional[List[UsageRecord]] = None
        self._sniffers: List[Callable] = []

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
        #: (index, address, on_frame_end) for every attached listener,
        #: in attach order (corrupted frames concern everyone).
        self._frame_end_snapshot: Tuple[Tuple[int, str, Callable], ...] = ()
        #: the same entries by MAC address (clean-unicast delivery).
        self._by_address: Dict[str, Tuple[int, str, Callable]] = {}
        #: listeners currently in EIFS state: they must hear about the
        #: next clean frame to clear it.
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
        """Register ``listener`` under the module's delivery contract:
        unsubscribed from carrier edges, told of involved frame ends.

        Addresses are unique per medium: attaching a second listener
        (or the same one again) under an attached address raises.
        """
        address = listener.address
        if address in self._by_address:
            raise ValueError(f"address {address!r} already attached")
        index = self._attach_seq
        self._attach_seq += 1
        self.listeners.append(listener)
        self._attach_index[id(listener)] = index
        entry = (index, address, listener.on_frame_end)
        self._frame_end_snapshot += (entry,)
        self._by_address[address] = entry

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
        self._eifs_dirty.pop(index, None)
        del self._by_address[listener.address]
        self._frame_end_snapshot = tuple(
            entry for entry in self._frame_end_snapshot if entry[0] != index
        )

    def is_attached(self, listener: ChannelListener) -> bool:
        return id(listener) in self._attach_index

    def eifs_mark(self, listener: ChannelListener) -> None:
        """``listener`` entered EIFS state: deliver the next clean frame
        to it so it can observe the medium recovering, and no further
        corrupted ones addressed elsewhere."""
        entry = self._by_address[listener.address]
        self._eifs_dirty[entry[0]] = entry

    def eifs_unmark(self, listener: ChannelListener) -> None:
        """``listener`` cleared its EIFS state."""
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
        """Register ``sniffer(frame, dest_corrupted, collided, start,
        end)`` observers, called at each transmission's end."""
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

    @property
    def busy_us(self) -> float:
        """Busy time so far, the open busy period included (so a jump
        scales growth over the window, not the periods ending in it)."""
        if self.busy and self.busy_start is not None:
            return self._busy_accum + (self.sim.now - self.busy_start)
        return self._busy_accum

    @busy_us.setter
    def busy_us(self, value: float) -> None:
        self._busy_accum += value - self.busy_us

    # ------------------------------------------------------------------
    def charge(self, report: "ExchangeReport") -> None:
        """MAC completion listener: attribute the exchange's airtime to
        its packet's station (a packet-less report charges nobody)."""
        packet = report.packet
        if packet is None:
            return
        airtime_us = report.airtime_us
        if airtime_us < 0:
            raise ValueError("airtime must be non-negative")
        station = packet.station
        occupancy = self._occupancy_us
        occupancy[station] = occupancy.get(station, 0.0) + airtime_us
        if self.records is not None:
            self.records.append(UsageRecord(self.sim.now, station, airtime_us))

    def occupancy_us(self, station: str) -> float:
        return self._occupancy_us.get(station, 0.0)

    def occupancies_us(self) -> Dict[str, float]:
        """Snapshot of every station's attributed airtime."""
        return dict(self._occupancy_us)

    def reset_occupancy(self) -> None:
        """Clear the attributed airtime and any records (end of
        warm-up); :attr:`busy_us` keeps counting from t = 0."""
        self._occupancy_us.clear()
        if self.records is not None:
            self.records.clear()

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
        tx = Transmission(frame, now, end)
        last_tx_end = self._last_tx_end
        if last_tx_end.get(src, 0.0) < end:
            last_tx_end[src] = end
        active = self.active
        was_idle = not active
        if not was_idle:
            # Overlap: everyone still in the air (and the newcomer) collides.
            for other in active:
                other.collided = True
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
        # Frame-end events are fire-and-forget: nobody keeps or cancels them.
        sim.schedule(
            duration, self._end, tx, priority=_PRIO_PHY, category=_CAT_PHY
        )
        return tx

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
        loss = self.loss
        dest_corrupted = collided or (loss is not None and loss.is_lost(frame))

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
        # Only involved listeners hear it (module docstring).  A
        # corrupted frame concerns every listener bar those already in
        # EIFS state that are not the destination (``settled``: their
        # handler for one more corrupted frame is a bare return).  A
        # clean frame only matters to its destination and to listeners
        # in EIFS state (their handler for it is "clear EIFS and
        # return") — O(involved), not O(listeners).
        src = frame.src
        dst = frame.dst
        deaf_after = tx.start + 1e-9
        last_end = self._last_tx_end.get
        settled = ()
        if collided:
            targets = self._frame_end_snapshot
            settled = self._eifs_dirty
        else:
            dirty = self._eifs_dirty
            dst_entry = self._by_address.get(dst)
            if not dirty:
                # Common case: no EIFS stragglers — deliver straight to
                # the destination, if it is attached here.
                targets = () if dst_entry is None else (dst_entry,)
            else:
                merged = dict(dirty)
                if dst_entry is not None:
                    merged[dst_entry[0]] = dst_entry
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
