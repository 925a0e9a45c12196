"""The ESS layer: N cells, one kernel, roaming and co-channel coupling.

::

    from repro.campus import Campus

    campus = Campus(seed=1, scheduler="tbr")
    campus.add_cell("c0", channel=1)
    campus.add_cell("c1", channel=1)
    campus.connect("c0", "c1")          # couples: same RF channel
    campus.add_station("c0", "n1", rate_mbps=11.0)
    campus.run(seconds=5, warmup_seconds=1)

Every scenario spec compiles onto a :class:`Campus` — its ``campus``
section (:class:`~repro.scenario.spec.CampusSpec`) or, without one, a
single implicit cell — through the one compiler,
:class:`repro.scenario.builder.ScenarioRuntime`;
``python -m repro scenario run campus`` is the command-line face, and
``scenario sweep campus --axis n_cells=...`` its scaling curve.
"""

from repro.campus.core import Campus
from repro.campus.sanitizer import CampusSanitizer

__all__ = ["Campus", "CampusSanitizer"]
