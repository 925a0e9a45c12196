"""``Campus`` — N cells, one kernel, co-channel interference.

The extended service set the paper's single-cell experiments live
inside: every :class:`~repro.node.cell.Cell` keeps its own AP, channel,
scheduler and usage ledger, but all of them share one
:class:`~repro.sim.Simulator`, so cross-cell timing (a roam landing, a
co-channel collision) is exact, not approximated.

Interference model: each cell sits on an RF channel; an *adjacency*
between two cells says they are physically close enough to hear each
other.  When an adjacent pair shares an RF channel, their media are
coupled both ways (:meth:`repro.channel.medium.Channel.couple`): a
transmission in either cell marks the other's medium busy for its whole
duration and collides with anything on the air there.  Because MAC
addresses are unique campus-wide, a foreign clean unicast finds no
local destination — it costs carrier time, which is exactly the
co-channel anomaly the ESS layer exists to expose.

A station is a member of exactly one cell at a time; roaming
(disassociate → association delay → associate) is driven by the
scenario layer (:mod:`repro.scenario.builder`), with the membership map
kept here.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple, Union

from repro.core.tbr import TbrConfig
from repro.node.cell import Cell
from repro.node.station import Station
from repro.phy.phy import DOT11B_LONG_PREAMBLE, PhyParams
from repro.sim import Simulator, us_from_s


class Campus:
    """A set of cells on one shared simulator."""

    def __init__(
        self,
        seed: int = 0,
        *,
        phy: PhyParams = DOT11B_LONG_PREAMBLE,
        scheduler: Union[str, object] = "fifo",
        tbr_config: Optional[TbrConfig] = None,
    ) -> None:
        self.sim = Simulator(seed=seed)
        self.phy = phy
        self.scheduler_spec = scheduler
        self.tbr_config = tbr_config
        self.cells: Dict[str, Cell] = {}
        #: cell name -> RF channel number.
        self.channel_map: Dict[str, int] = {}
        #: unordered adjacent pairs, stored sorted.
        self.adjacency: Set[Tuple[str, str]] = set()
        #: station name -> cell name (exactly one cell per station).
        self.membership: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def add_cell(
        self,
        name: str,
        *,
        channel: int = 1,
        ap_address: Optional[str] = None,
    ) -> Cell:
        """Create a cell on RF ``channel``.

        The AP address defaults to ``ap@<name>`` — unique across the
        campus, which coupled media require.  Pass ``ap_address="ap"``
        for a single-cell campus that must stay byte-identical to a
        standalone :class:`Cell` (the AP address names the AP MAC's RNG
        stream, so it is part of the byte-identity contract).
        """
        if name in self.cells:
            raise ValueError(f"duplicate cell name {name!r}")
        if ap_address is None:
            ap_address = f"ap@{name}"
        for other in self.cells.values():
            if other.ap.address == ap_address:
                raise ValueError(f"duplicate AP address {ap_address!r}")
        cell = Cell(
            scheduler=self.scheduler_spec,
            tbr_config=self.tbr_config,
            phy=self.phy,
            sim=self.sim,
            ap_address=ap_address,
        )
        self.cells[name] = cell
        self.channel_map[name] = channel
        return cell

    def connect(self, a: str, b: str) -> None:
        """Declare cells ``a`` and ``b`` adjacent (within RF earshot).

        Their media couple — both directions — only when the two cells
        share an RF channel; otherwise the adjacency is recorded but
        inert (a future channel re-plan could activate it).
        """
        for name in (a, b):
            if name not in self.cells:
                raise ValueError(f"unknown cell {name!r}")
        if a == b:
            raise ValueError(f"cell {a!r} cannot neighbour itself")
        pair = (a, b) if a <= b else (b, a)
        if pair in self.adjacency:
            return
        self.adjacency.add(pair)
        if self.channel_map[a] == self.channel_map[b]:
            self.cells[a].channel.couple(self.cells[b].channel)
            self.cells[b].channel.couple(self.cells[a].channel)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def cell_of(self, station: str) -> Cell:
        return self.cells[self.membership[station]]

    def add_station(self, cell_name: str, name: str, **kwargs) -> Station:
        """Associate a station with ``cell_name`` (campus-unique name)."""
        if cell_name not in self.cells:
            raise ValueError(f"unknown cell {cell_name!r}")
        if name in self.membership:
            raise ValueError(
                f"station {name!r} is already a member of "
                f"{self.membership[name]!r}"
            )
        station = self.cells[cell_name].add_station(name, **kwargs)
        self.membership[name] = cell_name
        return station

    def remove_station(self, name: str) -> None:
        """True disassociation from whichever cell holds the station."""
        cell_name = self.membership.pop(name, None)
        if cell_name is None:
            return
        self.cells[cell_name].remove_station(name)

    def crash_station(self, name: str) -> None:
        """Ungraceful death (:meth:`Cell.crash_station`) in whichever
        cell holds the station: off the membership map, AP state kept."""
        cell_name = self.membership.pop(name, None)
        if cell_name is None:
            return
        self.cells[cell_name].crash_station(name)

    # ------------------------------------------------------------------
    # running and measuring
    # ------------------------------------------------------------------
    def run(self, seconds: float, *, warmup_seconds: float = 0.0) -> None:
        """Run ``warmup_seconds`` then measure for ``seconds`` — one
        kernel drive for the whole campus."""
        if warmup_seconds > 0:
            self.sim.run(until=self.sim.now + us_from_s(warmup_seconds))
            self.reset_measurements()
        self.sim.run(until=self.sim.now + us_from_s(seconds))

    def reset_measurements(self) -> None:
        for cell in self.cells.values():
            cell.reset_measurements()

    # ------------------------------------------------------------------
    # campus-wide reporting (merged across cells)
    # ------------------------------------------------------------------
    def throughputs_mbps(self) -> Dict[str, float]:
        """Per-flow goodput merged across cells (flow names are unique
        campus-wide because station names are)."""
        merged: Dict[str, float] = {}
        for cell in self.cells.values():
            merged.update(cell.throughputs_mbps())
        return merged

    def station_throughputs_mbps(self) -> Dict[str, float]:
        """Per-station goodput; a roamer's bytes in every cell it
        visited sum under its one name."""
        merged: Dict[str, float] = {}
        for cell in self.cells.values():
            for name, mbps in cell.station_throughputs_mbps().items():
                merged[name] = merged.get(name, 0.0) + mbps
        return merged

    def occupancy_fractions(self) -> Dict[str, float]:
        """Per-station airtime as a fraction of measured time, summed
        over every cell that attributed airtime to the station (a
        roamer occupies the campus from two cells in one window)."""
        merged: Dict[str, float] = {}
        for cell in self.cells.values():
            for name, fraction in cell.occupancy_fractions().items():
                merged[name] = merged.get(name, 0.0) + fraction
        return merged

    def cell_occupancy_fractions(self) -> Dict[str, Dict[str, float]]:
        return {
            name: cell.occupancy_fractions()
            for name, cell in self.cells.items()
        }

    def cell_members(self) -> Dict[str, List[str]]:
        """Current membership, per cell (cells in creation order)."""
        members: Dict[str, List[str]] = {name: [] for name in self.cells}
        for station, cell_name in self.membership.items():
            members[cell_name].append(station)
        return members

    def cell_busy_fractions(self) -> Dict[str, float]:
        return {
            name: cell.channel.busy_fraction()
            for name, cell in self.cells.items()
        }
