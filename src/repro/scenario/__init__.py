"""Declarative scenarios: specs, a builder, families and sweeps.

The scenario subsystem turns the repo's one-off experiment setups into
a generative workload space::

    from repro.scenario import build_spec, run_spec, render_result

    spec = build_spec("churn", scheduler="tbr", period_s=1.0)
    print(render_result(run_spec(spec)))

Specs are frozen, content-addressed data (:mod:`repro.scenario.spec`),
compiled into live cells by :mod:`repro.scenario.builder`, generated by
the family registry (:mod:`repro.scenario.registry`), and executed
serially or as cached campaign jobs by :mod:`repro.scenario.runner`.
``python -m repro scenario`` is the command-line face.
"""

from repro.scenario.builder import ScenarioRuntime
from repro.scenario.registry import (
    FAMILIES,
    ScenarioFamily,
    build_spec,
    sweep_specs,
)
from repro.scenario.runner import (
    SCENARIO_EXECUTOR,
    ScenarioResult,
    execute_scenario,
    render_result,
    run_spec,
    scenario_job,
)
from repro.scenario.spec import (
    ApOutageEvent,
    CampusSpec,
    CellSpec,
    ChannelDegradeEvent,
    FlowSpec,
    JoinEvent,
    LeaveEvent,
    RateSwitchEvent,
    ReaperSpec,
    RejoinEvent,
    RoamEvent,
    ScenarioSpec,
    StationCrashEvent,
    StationSpec,
    TimelineEvent,
    TrafficOffEvent,
    TrafficOnEvent,
)

__all__ = [
    "FAMILIES",
    "SCENARIO_EXECUTOR",
    "ApOutageEvent",
    "CampusSpec",
    "CellSpec",
    "ChannelDegradeEvent",
    "FlowSpec",
    "JoinEvent",
    "LeaveEvent",
    "RateSwitchEvent",
    "ReaperSpec",
    "RejoinEvent",
    "RoamEvent",
    "ScenarioFamily",
    "ScenarioResult",
    "ScenarioRuntime",
    "ScenarioSpec",
    "StationCrashEvent",
    "StationSpec",
    "TimelineEvent",
    "TrafficOffEvent",
    "TrafficOnEvent",
    "build_spec",
    "execute_scenario",
    "render_result",
    "run_spec",
    "scenario_job",
    "sweep_specs",
]
