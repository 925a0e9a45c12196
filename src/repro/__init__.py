"""repro — reproduction of Tan & Guttag, "Time-based Fairness Improves
Performance in Multi-rate WLANs" (USENIX ATC 2004).

The package provides:

* ``repro.sim`` — a deterministic discrete-event simulation kernel;
* ``repro.phy`` / ``repro.channel`` / ``repro.mac`` — an 802.11b PHY
  timing model, a single-cell broadcast channel with collision semantics,
  and a faithful DCF (CSMA/CA) MAC;
* ``repro.node`` / ``repro.queueing`` / ``repro.transport`` — stations,
  access points, AP queueing disciplines, TCP Reno / UDP and wired links;
* ``repro.core`` — the paper's contribution, the Time-based Regulator
  (TBR), plus its max-min token-rate adjustment and extensions;
* ``repro.analysis`` — the paper's analytic model (Equations 4-13),
  baseline throughputs, and fairness/efficiency metrics;
* ``repro.traces`` — trace records, an in-simulator sniffer, synthetic
  trace generators and the paper's trace analyses;
* ``repro.experiments`` — one entry point per paper figure/table.

Quickstart::

    from repro.experiments import fig2
    result = fig2.run(seed=1)
    print(fig2.render(result))
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
