"""Nodes: stations, access points, wired hosts and rate control."""

from repro.node.rate_control import RateController, FixedRate, ArfController
from repro.node.station import Station
from repro.node.access_point import AccessPoint
from repro.node.wired_host import WiredHost
from repro.node.cell import Cell, FlowHandle

__all__ = [
    "RateController",
    "FixedRate",
    "ArfController",
    "Station",
    "AccessPoint",
    "WiredHost",
    "Cell",
    "FlowHandle",
]
