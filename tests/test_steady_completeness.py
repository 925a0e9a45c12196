"""Completeness of the fast-forward declarations (``TIME_STATE``).

A jump moves exactly what the classes declare (``repro.sim.steady``):
clocks shift, counters scale, ``exact`` methods run, ``phase`` stays.
Anything *else* that moves while a saturated cell runs is state a jump
silently leaves behind — PR 14 found ``fifo_dropped`` and
``downlink_packets`` in that position by accident, eight PRs after the
engine landed.  This test finds it on purpose: it walks every
``repro.*`` object reachable from a steady-long ``Cell``, runs one
calibration window event by event, and names every numeric attribute
that moved without being declared.
"""

import pathlib
import sys
from collections import deque

import pytest

from repro.mac.dcf import DcfMac
from repro.queueing.fifo import ApFifoScheduler
from repro.scenario import build_spec
from repro.scenario.builder import ScenarioRuntime
from repro.sim.steady import CALIBRATION_US

#: not cell state: the kernel and its events, pooled packets and the
#: frames in flight around them.
_SKIPPED = {"Simulator", "Event", "Packet", "Frame"}
_KINDS = ("clocks", "counters", "exact", "phase")


def _attrs(obj):
    found = dict(getattr(obj, "__dict__", ()))
    for klass in type(obj).__mro__:
        for name in getattr(klass, "__slots__", ()):
            if hasattr(obj, name):
                found[name] = getattr(obj, name)
    return found


def _reachable(root):
    """Every ``repro.*`` object reachable from ``root`` through instance
    attributes, containers and bound callbacks."""
    seen, found, stack = set(), [], [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset, deque)):
            stack.extend(obj)
        elif hasattr(obj, "__func__") and hasattr(obj, "__self__"):
            stack.append(obj.__self__)
        elif (
            type(obj).__module__.startswith("repro.")
            and type(obj).__name__ not in _SKIPPED
        ):
            found.append(obj)
            stack.extend(_attrs(obj).values())
    return found


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numeric_state(objects):
    """``{(id, Class, attr): value}`` for every attribute that is a
    number (or unset), or a dict / list of numbers."""
    state = {}
    for obj in objects:
        for name, value in _attrs(obj).items():
            if isinstance(value, dict):
                items = list(value.values())
            elif isinstance(value, list):
                items = value
            else:
                items = [value]
            if all(_is_number(item) or item is None for item in items):
                if isinstance(value, (dict, list)):
                    value = type(value)(value)
                state[id(obj), type(obj).__name__, name] = value
    return state


def _declared(klass):
    names = set()
    for base in klass.__mro__:
        decl = base.__dict__.get("TIME_STATE", {})
        for kind in _KINDS:
            names.update(decl.get(kind, ()))
    return names


def _undeclared_movers(scheduler):
    """``Class.attr`` for everything that moved, undeclared, over one
    calibration window of a steady-long cell (sampled every 10 ms, so
    state that returns to its starting value by the window's end still
    shows)."""
    spec = build_spec("steady-long", scheduler=scheduler, seconds=12.0)
    cell = ScenarioRuntime(spec, fast_forward=False).cell
    sim = cell.sim
    # 1.8 s .. 2.2 s: past warm-up, no timeline event, and across the
    # 2.0 s ADJUSTRATEEVENT so TBR's window origins move too.
    sim.run(until=1_800_000.0)
    objects = _reachable(cell)
    classes = {type(obj).__name__: type(obj) for obj in objects}
    before = _numeric_state(objects)
    moved = set()
    steps = 40
    for step in range(1, steps + 1):
        sim.run(until=1_800_000.0 + step * CALIBRATION_US / steps)
        now = _numeric_state(objects)
        # (an attribute that stopped being numeric was an empty container
        # of something else: ``Channel._carrier_subs``)
        moved.update(
            key[1:]
            for key, value in before.items()
            if key in now and now[key] != value
        )
    assert moved, "the cell did not run"
    return sorted(
        f"{klass}.{attr}"
        for klass, attr in moved
        if attr not in _declared(classes[klass])
    )


@pytest.mark.parametrize("scheduler", ["tbr", "fifo"])
def test_everything_that_moves_is_declared(scheduler):
    assert _undeclared_movers(scheduler) == []


def test_an_undeclared_counter_or_clock_is_reported(monkeypatch):
    # The mutation check: the find PR 14 made by accident, then a clock.
    def without(klass, kind, attr):
        decl = dict(klass.TIME_STATE)
        decl[kind] = tuple(name for name in decl[kind] if name != attr)
        monkeypatch.setattr(klass, "TIME_STATE", decl)

    without(ApFifoScheduler, "counters", "fifo_dropped")
    assert _undeclared_movers("fifo") == ["ApFifoScheduler.fifo_dropped"]
    without(DcfMac, "clocks", "_bo_anchor")
    assert _undeclared_movers("fifo") == [
        "ApFifoScheduler.fifo_dropped", "DcfMac._bo_anchor",
    ]


def _declaring_classes():
    # (the scenario builder imported above pulls in every component)
    found = {}
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro."):
            for klass in vars(module).values():
                if isinstance(klass, type) and "TIME_STATE" in vars(klass):
                    found[klass.__name__] = klass
    return found


def test_declarations_name_real_attributes():
    # ``phase`` is read by nothing but this file, so nothing else would
    # notice a misspelt or since-renamed entry.
    for scheduler in ("tbr", "fifo", "drr"):
        spec = build_spec("steady-long", scheduler=scheduler, seconds=1.0)
        cell = ScenarioRuntime(spec, fast_forward=False).cell
        for obj in _reachable(cell):
            for klass in type(obj).__mro__:
                decl = klass.__dict__.get("TIME_STATE", {})
                for kind in _KINDS + ("parts",):
                    for attr in decl.get(kind, ()):
                        assert hasattr(obj, attr), (klass.__name__, attr)
                for method in decl.get("exact", {}).values():
                    assert callable(getattr(obj, method))


def test_experiments_table_lists_every_declaration():
    text = (
        pathlib.Path(__file__).parent.parent / "EXPERIMENTS.md"
    ).read_text()
    for name, klass in _declaring_classes().items():
        assert f"`{name}`" in text, name
        for kind in _KINDS + ("parts",):
            for attr in klass.TIME_STATE.get(kind, ()):
                assert f"`{attr}`" in text, (name, attr)
