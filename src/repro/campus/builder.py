"""Import shim for ``benchmarks/suite/workloads.py``, which still names
the compiler this way; the ``benchmark`` PR of ROADMAP item 1 drops it."""
from repro.scenario.builder import ScenarioRuntime as CampusRuntime  # noqa: F401
