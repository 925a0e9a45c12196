"""Import budgets: the ``repro`` modules each entry point loads, pinned.

Every ``python -m repro`` command starts in a fresh interpreter — the
``repro serve`` front-end, each spool ``repro campaign worker``, each
``repro scenario run`` — and without cached bytecode every module it
imports is compiled from source first.  So what an entry point imports
is start-up it pays on every launch.  Wall-clock does not carry from
one host to another; the set of modules does: it is deterministic and
host-free, and an eager import that drags the experiment table (and
the simulator under it) into ``serve`` shows up here.

Each entry point runs in its own subprocess with ``PYTHONHASHSEED=0``,
the way ``python -m repro`` runs it (``runpy`` over ``repro.__main__``):

* ``serve`` until its banner — ``--jobs 1`` on a fresh store;
  ``serve_forever`` is swapped for a stop, so the modules are read
  right after the banner is printed;
* ``campaign --help``, the spool worker's front door;
* ``scenario run`` on a short spec.

The rule of ``PINNED_PUSHES``: counts may only fall, and a rise needs a
line in CHANGES.md saying why.  No ``repro.experiments`` module may
load for any of them.  The failure message prints the measured table
to paste.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.sim.sanitizer import SANITIZE_ENV
from repro.sim.steady import FASTFWD_ENV

#: label -> the sorted ``repro`` modules loaded by that entry point.
PINNED_IMPORTS = {
    "serve": [  # 10 modules
        "repro", "repro.campaign", "repro.campaign.executor",
        "repro.campaign.faults", "repro.campaign.job", "repro.campaign.policy",
        "repro.campaign.pool", "repro.campaign.store", "repro.cli",
        "repro.serve",
    ],
    "campaign --help": [  # 10
        "repro", "repro.campaign", "repro.campaign.cli",
        "repro.campaign.executor", "repro.campaign.faults",
        "repro.campaign.job", "repro.campaign.policy", "repro.campaign.pool",
        "repro.campaign.store", "repro.cli",
    ],
    "scenario run": [  # 59
        "repro", "repro.campaign", "repro.campaign.executor",
        "repro.campaign.faults", "repro.campaign.job", "repro.campaign.policy",
        "repro.campaign.pool", "repro.campaign.store", "repro.campus",
        "repro.campus.core", "repro.campus.sanitizer", "repro.channel",
        "repro.channel.loss", "repro.channel.medium",
        "repro.channel.propagation", "repro.cli", "repro.core",
        "repro.core.rate_adjust", "repro.core.tbr", "repro.core.token_bucket",
        "repro.mac", "repro.mac.dcf", "repro.mac.fifo", "repro.mac.frames",
        "repro.node", "repro.node.access_point",
        "repro.node.cell", "repro.node.rate_control", "repro.node.station",
        "repro.node.wired_host", "repro.phy", "repro.phy.modulation",
        "repro.phy.phy", "repro.phy.rates", "repro.queueing",
        "repro.queueing.base", "repro.queueing.drr", "repro.queueing.fifo",
        "repro.queueing.round_robin", "repro.scenario",
        "repro.scenario.builder", "repro.scenario.cli",
        "repro.scenario.registry", "repro.scenario.runner",
        "repro.scenario.spec", "repro.sim", "repro.sim.event",
        "repro.sim.kernel", "repro.sim.sanitizer", "repro.sim.steady",
        "repro.sim.timers", "repro.sim.units", "repro.transport",
        "repro.transport.apps", "repro.transport.packet",
        "repro.transport.stats", "repro.transport.tcp", "repro.transport.udp",
        "repro.transport.wired",
    ],
}

#: label -> argv after ``python -m repro``; ``{store}`` is a fresh
#: directory.
ENTRY_POINTS = {
    "serve": ["serve", "--jobs", "1", "--port", "0", "--cache-dir", "{store}"],
    "campaign --help": ["campaign", "--help"],
    "scenario run": ["scenario", "run", "mixed", "--set", "seconds=0.5"],
}

_SCRIPT = r"""
import contextlib, io, json, runpy, sys

argv = json.loads(sys.argv[1])
if argv[0] == "serve":
    import repro.serve

    def stop(self, poll_interval=0.5):
        raise KeyboardInterrupt  # the banner is out: main() closes up

    repro.serve._Server.serve_forever = stop
sys.argv = ["repro"] + argv
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        if exc.code:
            raise
loaded = sorted(
    name for name in sys.modules
    if name == "repro" or name.startswith("repro.")
)
json.dump(loaded, sys.stdout)
"""


def imported(label, tmp_path):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONHASHSEED="0")
    for name in (SANITIZE_ENV, FASTFWD_ENV):  # the plain run's imports
        env.pop(name, None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    argv = [a.format(store=tmp_path / "store") for a in ENTRY_POINTS[label]]
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(argv)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout)


@pytest.mark.parametrize("label", sorted(ENTRY_POINTS))
def test_imports_per_entry_point_are_pinned(label, tmp_path):
    measured = imported(label, tmp_path)
    assert not [m for m in measured if m.startswith("repro.experiments")]
    assert measured == PINNED_IMPORTS.get(label), (
        f"import budget of {label!r} moved ({len(measured)} modules) — "
        "counts may only fall; paste the measured list into "
        f"PINNED_IMPORTS and say why in CHANGES.md:\n{json.dumps(measured)}"
    )
