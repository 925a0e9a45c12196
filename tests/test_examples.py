"""Smoke tests for the documented entry points under ``examples/``.

Every example script must import and run its ``main()`` cleanly — the
README and docstrings point users at them, so they cannot be allowed
to rot.  Simulated horizons are clamped (each ``Simulator.run`` call
advances at most ~0.3 simulated seconds) so the whole set stays within
the tier-1 wall budget; the numbers printed are meaningless at that
length, but every construction path still executes.
"""

import importlib.util
import pathlib
import sys

import pytest

from repro.sim.kernel import Simulator

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))

#: longest simulated advance one ``run`` call may make under the clamp.
CAP_US = 300_000.0


@pytest.fixture
def short_horizons(monkeypatch):
    original = Simulator.run

    def clamped(self, until=None):
        if until is not None:
            until = min(until, self.now + CAP_US)
        return original(self, until=until)

    monkeypatch.setattr(Simulator, "run", clamped)


def test_every_example_is_collected():
    assert len(EXAMPLES) >= 6
    assert EXAMPLES_DIR / "quickstart.py" in EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs_clean(path, short_horizons, monkeypatch, capsys):
    # argparse-based examples read sys.argv; give them a bare one.
    monkeypatch.setattr(sys, "argv", [path.name])
    spec = importlib.util.spec_from_file_location(
        f"example_{path.stem}", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # __main__ guard keeps this inert
    assert hasattr(module, "main"), f"{path.name} must define main()"
    module.main()
    out = capsys.readouterr().out
    assert out.strip(), f"{path.name} printed nothing"
