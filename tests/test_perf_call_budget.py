"""Call budgets: Python calls per ``repro`` subpackage, pinned.

Event and push counts (``test_perf_event_budget.py``) do not see what
each event costs, and wall-clock does not carry from one host to
another.  The number of Python-level calls a fixed run makes does:
it is deterministic, host-free, and it moves with the constant cost of
each event and each offered packet — a frame added to the hot loop
shows up here while every event budget stays green.

The runs are the headline cell and both campus rows that
``test_perf_event_budget.py`` pins.  They execute in a subprocess with
``PYTHONHASHSEED=0`` (set iteration order reaches some call counts)
under ``cProfile``, with the sanitizer and fast-forward explicitly off,
so the counts are a property of the code and not of the environment
the suite runs in.  ``ncalls`` are summed per subpackage of ``repro``
(``sim``, ``mac``, ``transport``, ...; top-level modules count as
``repro``).

The rule of ``PINNED_PUSHES``: counts may only fall, and a rise needs a
line in CHANGES.md saying why.  The failure message prints the measured
table to paste.
"""

import json
import os
import pathlib
import subprocess
import sys

#: label -> {subpackage: ncalls} for one plain run of the spec.
PINNED_CALLS = {
    "tbr/multi/n64": {
        "campus": 134, "channel": 1046, "core": 9048, "mac": 1934,
        "node": 1217, "phy": 478, "queueing": 3875, "scenario": 1578,
        "sim": 1700, "transport": 2285,
    },
    "campus/ch1": {
        "campus": 27, "channel": 9136, "core": 2277, "mac": 14116,
        "node": 4525, "phy": 2320, "queueing": 983, "scenario": 189,
        "sim": 8955, "transport": 6735,
    },
    "campus/ch3": {
        "campus": 27, "channel": 17053, "core": 6087, "mac": 31811,
        "node": 12752, "phy": 6737, "queueing": 2782, "scenario": 189,
        "sim": 15757, "transport": 19380,
    },
}

_SCRIPT = r"""
import cProfile, json, pathlib, pstats, sys

import repro
from repro.scenario import run_spec
from test_perf_event_budget import HEADLINE, campus_spec, saturated_spec

PACKAGE = pathlib.Path(repro.__file__).resolve().parent

SPECS = {
    "tbr/multi/n64": saturated_spec(*HEADLINE),
    "campus/ch1": campus_spec(1),
    "campus/ch3": campus_spec(3),
}


def layer(filename):
    try:
        inside = pathlib.Path(filename).resolve().relative_to(PACKAGE).parts
    except ValueError:
        return None
    return inside[0] if len(inside) > 1 else "repro"


out = {}
for label, spec in SPECS.items():
    profile = cProfile.Profile()
    profile.enable()
    run_spec(spec, sanitize=False, fast_forward=False)
    profile.disable()
    sums = {}
    for (filename, _, _), row in pstats.Stats(profile).stats.items():
        name = layer(filename)
        if name is not None:
            sums[name] = sums.get(name, 0) + row[1]
    out[label] = dict(sorted(sums.items()))
json.dump(out, sys.stdout)
"""


def measure():
    tests = pathlib.Path(__file__).resolve().parent
    src = tests.parent / "src"
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), str(tests)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout)


def test_calls_per_subpackage_are_pinned():
    measured = measure()
    assert measured == PINNED_CALLS, (
        "call budget moved — counts may only fall; paste the measured "
        f"table into PINNED_CALLS and say why in CHANGES.md:\n"
        f"{json.dumps(measured, indent=4)}"
    )
