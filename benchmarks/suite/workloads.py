"""The five workloads: what each one runs, checks and reports.

Every workload has the same four parts (see :class:`Workload`): a
``setup`` that is repeated to time it, a golden ``gate`` through the
workload's own call path, an untraced time-bounded ``measure`` that
yields the end-to-end figures, and a fixed-size ``traced_pass`` (run
once with spans off and once with spans and cProfile on) plus
``layer_extras`` that yield the per-layer figures.

The end-to-end vocabulary is shared by all five, so every workload
reports every end-to-end metric:

* a **cold** operation has to simulate — a spec run front to back, a
  cold campaign job, a cold-miss ``POST /run``.  Its figure is
  ``sim_s_per_wall_s``: simulated seconds delivered per reference host
  second through the workload's front door;
* a **warm** operation answers from a result that is already stored —
  ``run_jobs`` replaying from the :class:`ResultStore`, a warm-hit
  ``POST /run``.  Its figures are ``warm_p50_ms`` (one operation at a
  time) and ``warm_per_s`` (a batch, or the closed loop's throughput).

Importing this module imports the program under test; ``run.py`` times
that import as part of ``setup_s``.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import http.client
import json
import re
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.analysis.model import NodeSpec, tf_time_shares
from repro.campaign import ResultStore, execute_job, run_jobs
from repro.campaign.policy import RetryPolicy
from repro.campaign.queue import (
    SpoolConfig,
    claim_next,
    enqueue,
    process_one,
)
from repro.campus.builder import CampusRuntime
from repro.scenario import (
    ScenarioResult,
    ScenarioRuntime,
    build_spec,
    render_result,
    run_spec,
    scenario_job,
)
from repro.scenario.codec import spec_from_json, spec_to_json
from repro.scenario.spec import RoamEvent
from repro.serve import ServeState
from repro.sim import Simulator

from harness import (
    GOLDEN_DIR,
    Checks,
    HostClock,
    child_env,
    median,
    percentile,
    process_cpu_reader,
    profile_tottime,
    profiled,
    quartiles,
    shares,
)

#: The pinned parameter sets behind ``tests/golden/scenario_*.txt``
#: (kept in step with ``tests/test_scenario_golden.py``; a drift fails
#: the gate loudly rather than silently).
GOLDEN_PARAMS = {
    "churn": dict(
        seconds=2.0, warmup_s=0.5, period_s=0.5, stay_s=0.75, n_joiners=3
    ),
    "mobility": dict(seconds=2.0, warmup_s=0.5, dwell_s=0.4),
    "bursty": dict(seconds=2.0, warmup_s=0.5, on_s=0.5, off_s=0.5),
    "mixed": dict(seconds=1.5, warmup_s=0.5),
    "fairness-churn": dict(seconds=2.4, warmup_s=0.5),
    "fairness-outage": dict(seconds=3.0, warmup_s=0.5, outage_s=0.5),
    "campus": dict(seconds=2.5, warmup_s=0.5),
}

SCHEDULERS = ("tbr", "fifo", "drr", "rr")

#: Jobs replayed one call at a time in a warm cycle (all of a small set).
WARM_CYCLE_JOBS = 16


def golden_specs(only: Optional[str] = None) -> List[Tuple[str, Any, str]]:
    """``(family, spec, expected render)`` for every pinned family, or
    for ``only`` one (what the smoke size gates on)."""
    return [
        (
            family,
            build_spec(family, **params),
            (GOLDEN_DIR / f"scenario_{family}.txt").read_text(),
        )
        for family, params in sorted(GOLDEN_PARAMS.items())
        if only is None or family == only
    ]


def sim_seconds(spec) -> float:
    """Simulated seconds one run of ``spec`` covers."""
    return spec.seconds + spec.warmup_seconds


def share_err(spec, result) -> float:
    """Max |normalised occupancy share - Eq. 11 share| over stations
    (0 for a campus: the model has no coupled cells or roamers)."""
    if spec.campus is not None:
        return 0.0
    model = tf_time_shares(
        [NodeSpec(s.name, s.rate_mbps) for s in spec.stations]
    )
    total = sum(result.occupancy.get(name, 0.0) for name in model)
    if total <= 0:
        return 1.0
    return max(
        abs(result.occupancy.get(name, 0.0) / total - share)
        for name, share in model.items()
    )


def collect(runtime, spec) -> ScenarioResult:
    """The collect step of ``run_spec`` through the runtime's public
    accessors, so the traced pass can put a span around it.  The gate
    holds it to ``run_spec``: both must render the same bytes."""
    if isinstance(runtime, CampusRuntime):
        world = runtime.campus
        extra = dict(
            cell_members={
                name: sorted(members)
                for name, members in world.cell_members().items()
            },
            cell_channels=dict(world.channel_map),
            cell_occupancy=world.cell_occupancy_fractions(),
            cell_busy_fraction=world.cell_busy_fractions(),
            roams_fired=runtime.roams_fired,
        )
    else:
        world = runtime.cell
        extra = {}
    sim = world.sim
    return ScenarioResult(
        name=spec.name,
        seed=spec.seed,
        scheduler=spec.scheduler,
        seconds=spec.seconds,
        warmup_seconds=spec.warmup_seconds,
        throughput_mbps=world.station_throughputs_mbps(),
        flow_throughput_mbps=world.throughputs_mbps(),
        occupancy=world.occupancy_fractions(),
        final_rates_mbps=runtime.station_rates_mbps(),
        timeline_fired=runtime.timeline_fired,
        events_executed=sim.events_executed,
        events_by_category=sim.events_by_category(),
        pool_leaked=runtime.pool_leaked(),
        fast_forwards=sim.fast_forwards,
        fast_forwarded_s=sim.fast_forwarded_us / 1e6,
        **extra,
    )


def timed_each(thunks: List[Callable[[], Any]]) -> Tuple[List[float], List[Any]]:
    """Run ``thunks`` back to back; raw wall of each, and what it gave."""
    walls, values = [], []
    for thunk in thunks:
        t0 = time.perf_counter()
        values.append(thunk())
        walls.append(time.perf_counter() - t0)
    return walls, values


def warm_replay(
    clock: HostClock,
    store: ResultStore,
    jobs: List[Any],
    expected: Dict[Any, Any],
    checks: Checks,
    cycles: int,
    batches: int,
) -> Tuple[List[float], List[float]]:
    """Replay stored results through ``run_jobs``: ``cycles`` times one
    call per job over the first :data:`WARM_CYCLE_JOBS` jobs, and
    ``batches`` times one call with every job.  Returns reference
    seconds per single-job call (one figure per cycle, so every sample
    mixes the same jobs) and per batch call; every replay must execute
    nothing and equal the cold result."""
    one_by_one = jobs[:WARM_CYCLE_JOBS]

    def cycle():
        return [run_jobs([job], workers=1, cache=store) for job in one_by_one]

    def batch():
        return [run_jobs(jobs, workers=1, cache=store)]

    (walls, groups), sample = clock.measure(
        timed_each, [cycle] * cycles + [batch] * batches
    )
    for outcome in (outcome for group in groups for outcome in group):
        checks.check(
            outcome.stats.executed == 0
            and outcome.ok
            and len(outcome.results) == outcome.stats.total
            and all(expected[job] == value for job, value in outcome.results.items()),
            f"warm replay executed {outcome.stats.executed} or differs",
        )
    scaled = [wall * sample.scale for wall in walls]
    return (
        [wall / len(one_by_one) for wall in scaled[:cycles]],
        scaled[cycles:],
    )


def summary(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = quartiles(values)
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3}


def rounds_until(seconds: float) -> Iterator[int]:
    """Round numbers until ``seconds`` of wall have been measured; stops
    early rather than start a round that would overshoot by half."""
    started = time.perf_counter()
    n = 0
    while True:
        yield n
        n += 1
        elapsed = time.perf_counter() - started
        if elapsed + 0.5 * elapsed / n >= seconds:
            return


def zero_layers() -> Dict[str, float]:
    """Every per-layer metric at 0: a layer a workload bypasses reports
    0 work, which is itself a prediction the README states."""
    return {name: 0.0 for name in PER_LAYER_UNITS}


def kernel_micro(events: int) -> Dict[str, float]:
    """The kernel alone: no-op callbacks over a 1 k-deep heap through
    the public ``schedule`` / ``run`` / ``cancel``."""

    def noop() -> None:
        pass

    per_event, per_cancel = [], []
    for _ in range(3):
        sim = Simulator(seed=0)
        for i in range(1000):
            sim.schedule(1e12 + i, noop)
        t0 = time.perf_counter()
        for i in range(events):
            sim.schedule(1.0 + i, noop)
        sim.run(until=1e11)
        per_event.append((time.perf_counter() - t0) / events * 1e9)
        handles = [sim.schedule(2e12 + i, noop) for i in range(events)]
        t0 = time.perf_counter()
        for handle in handles:
            sim.cancel(handle)
        per_cancel.append((time.perf_counter() - t0) / events * 1e9)
    return {
        "sim.kernel_ns_per_event": median(per_event),
        "sim.kernel_cancel_ns": median(per_cancel),
    }


class Workload:
    """One workload.  Subclasses fill in the five hooks below."""

    name = ""
    why = ""
    smoke_family = "mixed"
    #: ``{"full": {...}, "smoke": {...}}`` size knobs.
    sizes: Dict[str, Dict[str, Any]] = {}

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.size = self.sizes["smoke" if smoke else "full"]
        #: the one golden family gated at smoke size (``None``: all).
        self.smoke_gate = self.smoke_family if smoke else None
        #: cProfile tottime per layer of the traced pass's profiled
        #: stage, and its shares per traced request where there are rows.
        self.tottime: Dict[str, float] = {}
        self.rows: Dict[str, Dict[str, float]] = {}

    # -- hooks -----------------------------------------------------------
    def setup(self, root: Path) -> None:
        """Everything the timed region needs, under ``root``."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop what ``setup`` started (files are removed by the caller)."""

    def cpu_reader(self) -> Callable[[], float]:
        """CPU clock covering every process that does the timed work."""
        return time.process_time

    def gate(self, checks: Checks) -> None:
        """Golden renders through this workload's call path."""
        raise NotImplementedError

    def measure(
        self, clock: HostClock, seconds: float, checks: Checks
    ) -> Dict[str, Any]:
        """Untraced, time-bounded: the end-to-end figures + detail."""
        raise NotImplementedError

    def traced_pass(
        self, tracer, profile: Optional[cProfile.Profile], index: int,
        checks: Checks,
    ) -> Dict[str, float]:
        """Fixed-size staged pass; ``index`` 0 is the untraced reference,
        1 the traced one (distinct cold inputs where a repeat would be
        warm).  Returns exact counts."""
        raise NotImplementedError

    def layer_extras(self, tracer, checks: Checks) -> Dict[str, float]:
        """Per-layer legs that need no second pass (traced once)."""
        return {}

    def digests(self) -> List[str]:
        """Content digests of the specs this seed generates (needs no
        set-up)."""
        raise NotImplementedError

    # -- shared ----------------------------------------------------------
    def spec_digest(self) -> str:
        return hashlib.sha256("".join(self.digests()).encode()).hexdigest()


class StoreBacked(Workload):
    """Workloads 1-4: rounds of one cold pass over the round's jobs and
    warm replays of the same jobs from ``self.store``."""

    #: simulated seconds one cold round covers (set by ``setup``).
    sim_s = 0.0

    def cold_round(
        self, clock: HostClock, n: int, checks: Checks
    ) -> Tuple[float, float, List[Any], Dict[Any, Any]]:
        """Round ``n``'s cold pass, its results stored: reference and
        raw seconds, the jobs, and ``job -> result``."""
        raise NotImplementedError

    def measure(self, clock, seconds, checks):
        cold: List[float] = []
        raw: List[float] = []
        singles: List[float] = []
        batches: List[float] = []
        for n in rounds_until(seconds):
            gc.collect()
            ref, wall, jobs, results = self.cold_round(clock, n, checks)
            cold.append(ref)
            raw.append(wall)
            one, whole = warm_replay(
                clock, self.store, jobs, results, checks,
                cycles=self.size["warm_cycles"],
                batches=self.size["warm_batches"],
            )
            singles += one
            batches += whole
        return {
            "sim_s_per_wall_s": self.sim_s / median(cold),
            "warm_p50_ms": 1e3 * median(singles),
            "warm_per_s": len(jobs) / median(batches),
            "detail": {
                "rounds": len(cold),
                "jobs_per_round": len(jobs),
                "sim_s_per_round": self.sim_s,
                "cold_ref_s": summary(cold),
                "cold_raw_s": summary(raw),
                "warm_single_ref_s": summary(singles),
                "warm_batch_ref_s": summary(batches),
            },
        }


# ----------------------------------------------------------------------
# workloads 1-3: the simulator, driven directly
# ----------------------------------------------------------------------
class SimWorkload(StoreBacked):
    """A spec set run front to back: ``run_spec`` + ``render_result``."""

    fast_forward = False

    def spec_params(self) -> List[Tuple[str, Dict[str, Any]]]:
        raise NotImplementedError

    def check_result(self, spec, result, checks: Checks) -> None:
        raise NotImplementedError

    def setup(self, root: Path) -> None:
        self.specs = [build_spec(f, **kw) for f, kw in self.spec_params()]
        for spec in self.specs:
            spec.validate()
        self.jobs = [scenario_job(spec, key=spec.name) for spec in self.specs]
        self.store = ResultStore(root / "store")
        self.sim_s = sum(sim_seconds(spec) for spec in self.specs)
        #: first-pass render per spec and result per job, which every
        #: later pass and replay is held to.
        self.renders: Dict[str, str] = {}
        self.results: Dict[Any, Any] = {}
        #: render per traced request of the untraced staged pass.
        self.staged_renders: Dict[str, str] = {}

    def digests(self) -> List[str]:
        return [
            scenario_job(build_spec(family, **overrides)).digest
            for family, overrides in self.spec_params()
        ]

    def gate(self, checks: Checks) -> None:
        for family, spec, expected in golden_specs(self.smoke_gate):
            rendered = (
                render_result(run_spec(spec, fast_forward=self.fast_forward))
                + "\n"
            )
            checks.check(rendered == expected, f"golden {family} differs")
            runtime = self._runtime_for(spec)
            runtime.run()
            checks.check(
                render_result(collect(runtime, spec)) + "\n" == expected,
                f"staged golden {family} differs",
            )

    def _runtime_for(self, spec):
        cls = CampusRuntime if spec.campus is not None else ScenarioRuntime
        return cls(spec, fast_forward=self.fast_forward)

    def _run_one(self, spec) -> Tuple[ScenarioResult, str]:
        result = run_spec(spec, fast_forward=self.fast_forward)
        return result, render_result(result)

    def cold_round(self, clock, n, checks):
        ref = wall = 0.0
        for spec, job in zip(self.specs, self.jobs):
            (result, text), sample = clock.measure(self._run_one, spec)
            ref += sample.ref
            wall += sample.wall
            if n == 0:
                self.renders[spec.name] = text
                self.results[job] = result
                self.store.put_for_job(job, result)
                self.check_result(spec, result, checks)
            else:
                checks.check(
                    text == self.renders[spec.name],
                    f"{spec.name}: render changed between passes",
                )
        return ref, wall, self.jobs, self.results

    def traced_pass(self, tracer, profile, index, checks):
        out = dict.fromkeys(
            ("sim.events", "sim.timer_events", "sim.heap_compactions",
             "sim.ff_jumps", "sim.ff_skipped_sim_s", "mac.events",
             "phy.events", "transport.events", "scenario.timeline_events",
             "campus.roams", "share_err"),
            0,
        )
        simulated = 0.0
        store = ResultStore(self.store.root.parent / f"traced-{index}")
        for family, overrides in self.spec_params():
            rid = f"{family}/{overrides['scheduler']}/{overrides['seed']}"
            spec_profile = cProfile.Profile() if profile is not None else None
            with tracer.span("spec", rid=rid):
                with tracer.span("scenario.build_spec"):
                    spec = build_spec(family, **overrides)
                with tracer.span("scenario.validate"):
                    spec.validate()
                with tracer.span(
                    "campus.compile" if spec.campus is not None
                    else "scenario.compile"
                ):
                    runtime = self._runtime_for(spec)
                with tracer.span("sim.run"), profiled(spec_profile):
                    runtime.run()
                with tracer.span("scenario.collect"):
                    result = collect(runtime, spec)
                with tracer.span("scenario.render"):
                    text = render_result(result)
                with tracer.span("scenario.codec_encode"):
                    wire = spec_to_json(spec)
                with tracer.span("scenario.codec_decode"):
                    decoded = spec_from_json(wire)
                with tracer.span("campaign.digest"):
                    job = scenario_job(spec, key=spec.name)
                    digest = job.digest
                with tracer.span("campaign.store_put"):
                    store.put_for_job(job, result)
                with tracer.span("campaign.store_get"):
                    hit, stored = store.get(digest)
            checks.check(
                hit and stored == result and decoded == spec,
                f"{rid}: store or codec round trip differs",
            )
            # The untraced pass is held to run_spec, the traced pass to
            # the untraced one: observation must not change the render.
            if index == 0:
                self.staged_renders[rid] = render_result(
                    run_spec(spec, fast_forward=self.fast_forward)
                )
            checks.check(
                text == self.staged_renders[rid],
                f"{rid}: staged path renders differently from run_spec",
            )
            world = runtime.campus if spec.campus is not None else runtime.cell
            by_cat = result.events_by_category
            out["sim.events"] += result.events_executed
            out["sim.timer_events"] += by_cat["timer"]
            out["mac.events"] += by_cat["mac"]
            out["phy.events"] += by_cat["phy"]
            out["transport.events"] += by_cat["traffic"]
            out["scenario.timeline_events"] += result.timeline_fired
            out["sim.heap_compactions"] += world.sim.heap_compactions
            out["sim.ff_jumps"] += result.fast_forwards
            out["sim.ff_skipped_sim_s"] += result.fast_forwarded_s
            out["campus.roams"] += result.roams_fired
            simulated += sim_seconds(spec)
            if spec.scheduler == "tbr":
                out["share_err"] = max(out["share_err"], share_err(spec, result))
            if spec_profile is not None:
                totals = profile_tottime(spec_profile)
                self.rows[rid] = shares(totals)
                for layer, value in totals.items():
                    self.tottime[layer] = self.tottime.get(layer, 0.0) + value
        out["sim.ff_skipped_frac"] = out["sim.ff_skipped_sim_s"] / simulated
        return out


class CellSaturated(SimWorkload):
    name = "cell-saturated"
    why = (
        "the paper's regime event by event (fast-forward off): sim, mac, "
        "phy, channel, core, queueing and transport do the work; "
        "campaign and serve do almost none"
    )
    sizes = {
        "full": dict(mixed_s=3.0, steady_s=9.0, warmup_s=1.0, warm_cycles=40,
                     warm_batches=40, share_err_max=0.10, cli_runs=3,
                     kernel_events=20000),
        "smoke": dict(mixed_s=0.3, steady_s=0.3, warmup_s=0.1, warm_cycles=2,
                      warm_batches=2, share_err_max=0.5, cli_runs=1,
                      kernel_events=2000),
    }

    def spec_params(self):
        # Two seeds per scheduler: what a mixed cell costs to simulate
        # depends on the seed (drr by up to a quarter), and a run should
        # measure the program, not which seed it drew.
        return [
            ("mixed", dict(n_tcp=4, n_udp=4, seconds=self.size["mixed_s"],
                           warmup_s=self.size["warmup_s"],
                           scheduler=scheduler, seed=seed))
            for seed in (self.seed, self.seed + 1000)
            for scheduler in ("tbr", "fifo", "drr")
        ] + [
            ("steady-long", dict(n_stations=16, scheduler="tbr",
                                 seconds=self.size["steady_s"],
                                 warmup_s=self.size["warmup_s"],
                                 seed=self.seed)),
        ]

    def check_result(self, spec, result, checks):
        checks.check(
            result.events_executed > 0 and result.pool_leaked == 0,
            f"{spec.name}: no events or leaked packets",
        )
        checks.check(
            result.fast_forwards == 0,
            f"{spec.name}: jumped with the engine off",
        )
        if spec.scheduler == "tbr":
            err = share_err(spec, result)
            checks.check(
                err <= self.size["share_err_max"],
                f"{spec.name}: share_err {err:.4f} over the ceiling",
            )

    def layer_extras(self, tracer, checks):
        out = kernel_micro(self.size["kernel_events"])
        walls = []
        argv = [sys.executable, "-m", "repro", "scenario", "run", "mixed",
                "--set", "seconds=2.0", "--seed", str(self.seed)]
        expected = render_result(
            run_spec(build_spec("mixed", seconds=2.0, seed=self.seed))
        )
        for _ in range(self.size["cli_runs"]):
            with tracer.span("cli.scenario_run"):
                t0 = time.perf_counter()
                done = subprocess.run(
                    argv, env=child_env(), capture_output=True, text=True,
                    timeout=120,
                )
                walls.append(time.perf_counter() - t0)
            checks.check(
                done.returncode == 0 and expected in done.stdout,
                "cli scenario run failed or printed another render",
            )
        out["cli_run_s"] = median(walls)
        return out


class SteadyHorizon(SimWorkload):
    name = "steady-horizon"
    why = (
        "long saturated horizons with fast-forward on: sim/steady.py and "
        "the fast_forward() methods do the work, per-packet code little"
    )
    fast_forward = True
    sizes = {
        "full": dict(seconds=500.0, warm_cycles=40, warm_batches=40,
                     share_err_max=0.06),
        "smoke": dict(seconds=30.0, warm_cycles=2, warm_batches=2,
                      share_err_max=0.5),
    }

    def spec_params(self):
        return [
            ("steady-long", dict(seconds=self.size["seconds"],
                                 scheduler=scheduler, seed=seed))
            for seed in (self.seed, self.seed + 1000)
            for scheduler in ("tbr", "fifo")
        ]

    def check_result(self, spec, result, checks):
        checks.check(
            result.fast_forwards > 0
            and result.fast_forwarded_s >= 0.9 * spec.seconds,
            f"{spec.name}: engine skipped {result.fast_forwarded_s:.0f} s "
            f"in {result.fast_forwards} jumps",
        )
        checks.check(
            result.timeline_fired == len(spec.timeline),
            f"{spec.name}: {result.timeline_fired} of "
            f"{len(spec.timeline)} timeline events fired",
        )
        if spec.scheduler == "tbr":
            err = share_err(spec, result)
            checks.check(
                err <= self.size["share_err_max"],
                f"{spec.name}: share_err {err:.4f} over the ceiling",
            )


class CampusGrid(SimWorkload):
    name = "campus-grid"
    why = (
        "16 cells on one kernel with fast-forward armed: campus compile, "
        "co-channel coupling (phy > mac events), roams and a "
        "many-station heap, bypassed by every other workload"
    )
    fast_forward = True
    smoke_family = "campus"
    sizes = {
        "full": dict(n_cells=16, n_roamers=8, seconds=1.5, warmup_s=0.5,
                     warm_cycles=40, warm_batches=40, kernel_events=20000),
        "smoke": dict(n_cells=4, n_roamers=2, seconds=0.3, warmup_s=0.2,
                      warm_cycles=2, warm_batches=2, kernel_events=2000),
    }

    def spec_params(self):
        return [
            ("campus", dict(n_cells=self.size["n_cells"], n_channels=3,
                            n_roamers=self.size["n_roamers"],
                            seconds=self.size["seconds"],
                            warmup_s=self.size["warmup_s"],
                            scheduler="tbr", seed=self.seed))
        ]

    def check_result(self, spec, result, checks):
        roams = sum(isinstance(e, RoamEvent) for e in spec.timeline)
        checks.check(
            result.roams_fired == roams and result.pool_leaked == 0,
            f"{spec.name}: {result.roams_fired} of {roams} roams, "
            f"{result.pool_leaked} packets leaked",
        )
        by_cat = result.events_by_category
        checks.check(
            by_cat["phy"] > by_cat["mac"],
            f"{spec.name}: coupling should make phy events exceed mac",
        )

    def layer_extras(self, tracer, checks):
        return kernel_micro(self.size["kernel_events"])


# ----------------------------------------------------------------------
# workload 4: the campaign stack around tiny simulations
# ----------------------------------------------------------------------
class CampaignSweep(StoreBacked):
    name = "campaign-sweep"
    why = (
        "many tiny jobs against a pre-populated store: job digests, "
        "fsync'd store puts, executor, pool and spool bookkeeping "
        "dominate and the simulator is incidental"
    )
    sizes = {
        "full": dict(seeds=16, background=2000, warm_cycles=20,
                     warm_batches=10, spool_jobs=64),
        "smoke": dict(seeds=2, background=40, warm_cycles=2,
                      warm_batches=2, spool_jobs=4),
    }

    def specs_for(self, round_no: int) -> List[Any]:
        """The sweep of one round: mixed/bursty x schedulers x seeds,
        all distinct from every other round's."""
        base = self.seed * 100_000 + round_no * self.size["seeds"]
        return [
            build_spec(family, scheduler=scheduler, seed=base + i,
                       seconds=0.05, warmup_s=0.05)
            for family in ("mixed", "bursty")
            for scheduler in SCHEDULERS
            for i in range(self.size["seeds"])
        ]

    @staticmethod
    def jobs_for(specs: List[Any]) -> List[Any]:
        return [scenario_job(spec, key=spec.name) for spec in specs]

    def setup(self, root: Path) -> None:
        self.root = root
        self.store = ResultStore(root / "store")
        for i in range(self.size["background"]):
            digest = hashlib.sha256(f"bg/{self.seed}/{i}".encode()).hexdigest()
            self.store.put(
                digest, {"background": i},
                meta={"experiment": "background", "key": str(i),
                      "family": f"bg{i % 8}", "seed": i, "executor": "-"},
            )
        self.traced_specs = self.specs_for(0)
        self.traced_jobs = self.jobs_for(self.traced_specs)
        self.sim_s = sum(sim_seconds(spec) for spec in self.traced_specs)

    def digests(self) -> List[str]:
        return [job.digest for job in self.jobs_for(self.specs_for(0))]

    def gate(self, checks: Checks) -> None:
        goldens = golden_specs(self.smoke_gate)
        jobs = [scenario_job(spec, key=family) for family, spec, _ in goldens]
        for label in ("cold", "warm"):
            outcome = run_jobs(jobs, workers=1, cache=self.store)
            executed = len(jobs) if label == "cold" else 0
            checks.check(
                outcome.ok and outcome.stats.executed == executed,
                f"golden {label} sweep executed {outcome.stats.executed}",
            )
            for job, (family, _, expected) in zip(jobs, goldens):
                checks.check(
                    render_result(outcome.results[job]) + "\n" == expected,
                    f"golden {family} differs on the {label} sweep",
                )

    def _check_cold(self, outcome, jobs, checks: Checks) -> None:
        for job in jobs:
            checks.check(
                job in outcome.results, f"{job.label}: no result"
            )
        checks.check(
            outcome.ok and outcome.stats.executed == len(jobs),
            f"cold sweep executed {outcome.stats.executed} of {len(jobs)}",
        )

    def cold_round(self, clock, n, checks):
        jobs = self.jobs_for(self.specs_for(n + 1))
        outcome, sample = clock.measure(
            lambda: run_jobs(jobs, workers=1, cache=self.store)
        )
        self._check_cold(outcome, jobs, checks)
        return sample.ref, sample.wall, jobs, outcome.results

    def traced_pass(self, tracer, profile, index, checks):
        """The serial path staged by hand — digest, get, execute, put —
        into a fresh store, so each step gets its own span."""
        store = ResultStore(self.root / f"staged-{index}")
        events = 0
        for spec in self.traced_specs:
            with tracer.span("campaign.job", rid=spec.name):
                with tracer.span("campaign.digest"):
                    job = scenario_job(spec, key=spec.name)
                    digest = job.digest
                with tracer.span("campaign.store_get"):
                    hit, _ = store.get(digest)
                with tracer.span("campaign.execute"), profiled(profile):
                    result = execute_job(job)
                with tracer.span("campaign.store_put"):
                    store.put_for_job(job, result)
            checks.check(not hit, f"{spec.name}: fresh store had the job")
            events += result.events_executed
        if profile is not None:
            self.tottime = profile_tottime(profile)
        return {"sim.events": events}

    def layer_extras(self, tracer, checks):
        jobs, n = self.traced_jobs, len(self.traced_jobs)
        out: Dict[str, float] = {}
        # the simulations alone, then the same jobs through run_jobs
        t0 = time.perf_counter()
        direct = [execute_job(job) for job in jobs]
        sims_s = time.perf_counter() - t0
        with tracer.span("campaign.run_jobs_cold"):
            t0 = time.perf_counter()
            cold = run_jobs(jobs, workers=1, cache=self.store)
            cold_s = time.perf_counter() - t0
        self._check_cold(cold, jobs, checks)
        checks.check(
            [cold.results[job] for job in jobs] == direct,
            "run_jobs results differ from direct execution",
        )
        with tracer.span("campaign.run_jobs_warm"):
            walls, warms = timed_each(
                [lambda: run_jobs(jobs, workers=1, cache=self.store)] * 10
            )
        warm = warms[-1]
        checks.check(
            warm.stats.executed == 0 and warm.results == cold.results,
            "warm replay executed work or differs from cold",
        )
        out["campaign.executor_overhead_ms"] = 1e3 * (cold_s - sims_s) / n
        out["campaign.executed"] = cold.stats.executed
        out["campaign.hits"] = warm.stats.cached
        out["campaign.retries"] = cold.stats.retried
        out["campaign.quarantined"] = cold.stats.failed
        out["cold_jobs_per_s"] = n / cold_s
        out["warm_jobs_per_s"] = n / median(walls)

        # plan / query / re-open on the populated store
        with tracer.span("campaign.store_plan"):
            plan = self.store.plan(jobs)
        with tracer.span("campaign.store_query"):
            rows = self.store.query(family="mixed")
        with tracer.span("campaign.store_open"):
            reopened = ResultStore(self.store.root)
        checks.check(
            len(plan.cached) == n and not plan.missing,
            f"plan found {len(plan.missing)} of {n} jobs missing",
        )
        checks.check(
            len(rows) >= n // 2
            and reopened.index.entries == self.store.index.entries,
            "query or re-opened index disagrees with the store",
        )
        out["campaign.index_rows"] = len(reopened.index.entries)

        # the same cold sweep through the 2-worker pool, second store
        pool_store = ResultStore(self.root / "pool")
        with tracer.span("campaign.run_jobs_pool"):
            t0 = time.perf_counter()
            pooled = run_jobs(jobs, workers=2, cache=pool_store)
            pool_s = time.perf_counter() - t0
        checks.check(
            pooled.ok and pooled.results == cold.results
            and pooled.stats.degraded_reason is None,
            "pool results differ from serial or the pool degraded",
        )
        out["pool_jobs_per_s"] = n / pool_s
        out["campaign.pool_overhead_ms"] = 1e3 * (pool_s - cold_s) / n

        # the spool: enqueue, then this process drains it itself
        spool_jobs = jobs[: self.size["spool_jobs"]]
        items = [(job.digest, job) for job in spool_jobs]
        spool_store = ResultStore(self.root / "spool-store")
        cfg = SpoolConfig(store_root=str(spool_store.root), retry=RetryPolicy())
        spool = self.root / "spool"
        with tracer.span("campaign.spool_enqueue"):
            t0 = time.perf_counter()
            enqueue(spool, cfg, items)
            out["campaign.spool_enqueue_ms"] = (
                1e3 * (time.perf_counter() - t0) / len(items)
            )
        walls = []
        while True:
            with tracer.span("campaign.spool_process"):
                t0 = time.perf_counter()
                status = process_one(spool, cfg, spool_store)
            if status != "done":
                break
            walls.append(time.perf_counter() - t0)
        checks.check(
            status == "empty" and len(walls) == len(items)
            and all(
                spool_store.get(job.digest) == (True, cold.results[job])
                for job in spool_jobs
            ),
            f"spool drained {len(walls)} of {len(items)} jobs, "
            f"ended {status!r}",
        )
        out["campaign.spool_process_ms"] = 1e3 * median(walls)
        # claiming alone, on a second spool of the same jobs
        claims = self.root / "spool-claims"
        enqueue(claims, cfg, items)
        walls = []
        while True:
            with tracer.span("campaign.spool_claim"):
                t0 = time.perf_counter()
                status = claim_next(claims)[0]
            if status != "claimed":
                break
            walls.append(time.perf_counter() - t0)
        checks.check(
            len(walls) == len(items),
            f"claimed {len(walls)} of {len(items)} spooled jobs",
        )
        out["campaign.spool_claim_ms"] = 1e3 * median(walls)
        return out


# ----------------------------------------------------------------------
# workload 5: repro serve over loopback HTTP
# ----------------------------------------------------------------------
class Reply(NamedTuple):
    """One HTTP exchange as the client saw it."""

    latency: float
    status: int  #: 0 when the exchange was refused or broke
    cache: Optional[str]
    executed: Optional[str]
    body: bytes
    #: request start, request written, headers read, body read
    marks: Optional[Tuple[float, float, float, float]]


class Client:
    """One keep-alive HTTP/1.1 connection, re-opened only on failure."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def exchange(self, method: str, path: str, body: Optional[bytes] = None) -> Reply:
        """Latency runs from request written to body fully read; a
        refused or broken exchange comes back as status 0."""
        headers = {"Content-Type": "application/json"} if body else {}
        t0 = time.perf_counter()
        try:
            self.conn.request(method, path, body=body, headers=headers)
            t1 = time.perf_counter()
            response = self.conn.getresponse()
            t2 = time.perf_counter()
            data = response.read()
            t3 = time.perf_counter()
        except (OSError, http.client.HTTPException):
            self.conn.close()  # the next request re-opens it
            return Reply(time.perf_counter() - t0, 0, None, None, b"", None)
        return Reply(
            t3 - t0, response.status, response.getheader("X-Repro-Cache"),
            response.getheader("X-Repro-Executed"), data, (t0, t1, t2, t3),
        )

    def close(self) -> None:
        self.conn.close()


class ServeMixed(Workload):
    name = "serve-mixed"
    why = (
        "repro serve over loopback, closed loop on 2 keep-alive "
        "connections: admission, codec decode, store gets and HTTP "
        "framing, with cold misses simulating behind the server's lock"
    )
    sizes = {
        "full": dict(stored=64, hit_share=0.4, slice_hits=12,
                     slice_misses=3, traced_hits=60,
                     traced_misses=12, traced_gets=40,
                     miss=dict(seconds=1.0, warmup_s=0.5)),
        "smoke": dict(stored=6, hit_share=0.5, slice_hits=2,
                      slice_misses=1, traced_hits=6,
                      traced_misses=2, traced_gets=3,
                      miss=dict(seconds=0.1, warmup_s=0.1)),
    }
    CONNECTIONS = 2

    # -- inputs ----------------------------------------------------------
    @staticmethod
    def body_for(index: int, family: str, overrides: Dict[str, Any]) -> bytes:
        """70 % ``{"family", "overrides"}`` bodies, 30 % full codec."""
        if index % 10 < 7:
            body = {"family": family, "overrides": overrides}
        else:
            body = {"spec": spec_to_json(build_spec(family, **overrides))}
        return json.dumps(body).encode("utf-8")

    def miss_request(self, index: int) -> Tuple[Any, bytes]:
        """Cold miss ``index``: a spec no other request of this run uses."""
        overrides = dict(self.size["miss"], seed=self.seed * 100_000 + 1000 + index)
        return (
            build_spec("mixed", **overrides),
            self.body_for(index, "mixed", overrides),
        )

    def stored_params(self) -> List[Tuple[str, Dict[str, Any]]]:
        """The specs pre-run into the store, which the warm hits ask for."""
        return [
            (family, dict(scheduler=scheduler, seed=self.seed * 100_000 + i,
                          seconds=0.5, warmup_s=0.25))
            for i in range(-(-self.size["stored"] // 8))
            for family in ("mixed", "bursty")
            for scheduler in SCHEDULERS
        ][: self.size["stored"]]

    def setup(self, root: Path) -> None:
        self.store_root = root / "store"
        store = ResultStore(self.store_root)
        self.hits: List[Tuple[bytes, bytes, str]] = []
        for i, (family, overrides) in enumerate(self.stored_params()):
            spec = build_spec(family, **overrides)
            job = scenario_job(spec, key=spec.name)
            result = run_spec(spec)
            store.put_for_job(job, result)
            self.hits.append((
                self.body_for(i, family, overrides),
                (render_result(result) + "\n").encode("utf-8"),
                job.digest,
            ))
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(self.store_root)],
            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )
        banner = self.server.stdout.readline()
        found = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
        if found is None:
            self.teardown()
            raise RuntimeError(f"repro serve did not start: {banner!r}")
        self.port = int(found.group(1))
        probe = Client(self.port)
        for _ in range(200):
            if probe.exchange("GET", "/healthz").status == 200:
                break
            time.sleep(0.05)
        else:
            self.teardown()
            raise RuntimeError("repro serve never answered /healthz")
        probe.close()
        self.next_miss = 0
        #: json + spec_for + run on a hit, in-process (raw seconds); the
        #: traced pass measures it, the untraced leg subtracts it.
        self.inprocess_hit_s = 0.0

    def teardown(self) -> None:
        self.server.terminate()
        try:
            self.server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()

    def cpu_reader(self):
        server = process_cpu_reader(self.server.pid)
        return lambda: time.process_time() + server()

    def digests(self) -> List[str]:
        return [
            scenario_job(build_spec(family, **overrides)).digest
            for family, overrides in self.stored_params()
        ]

    # -- checks ----------------------------------------------------------
    @staticmethod
    def check_hit(reply: Reply, expected: bytes, checks: Checks) -> None:
        checks.check(
            reply.status == 200 and reply.body == expected
            and reply.cache == "hit" and reply.executed == "0",
            f"warm hit answered {reply.status} cache={reply.cache} "
            f"executed={reply.executed} or another body",
        )

    @staticmethod
    def check_miss(reply: Reply, spec, checks: Checks) -> float:
        """Holds a miss to the in-process render; returns how long the
        in-process ``run_spec`` + render took (raw seconds)."""
        t0 = time.perf_counter()
        expected = (render_result(run_spec(spec)) + "\n").encode("utf-8")
        wall = time.perf_counter() - t0
        checks.check(
            reply.status == 200 and reply.body == expected
            and reply.cache == "miss" and reply.executed == "1",
            f"cold miss answered {reply.status} cache={reply.cache} "
            f"executed={reply.executed} or another body",
        )
        return wall

    def gate(self, checks: Checks) -> None:
        client = Client(self.port)
        for i, (family, spec, expected) in enumerate(golden_specs(self.smoke_gate)):
            body = {"family": family, "overrides": GOLDEN_PARAMS[family]}
            if i % 2:
                body = {"spec": spec_to_json(spec)}
            reply = client.exchange(
                "POST", "/run", json.dumps(body).encode("utf-8")
            )
            checks.check(
                reply.status == 200 and reply.body == expected.encode("utf-8"),
                f"golden {family} differs over HTTP ({reply.status})",
            )
        client.close()

    # -- closed loop -----------------------------------------------------
    def _closed_loop(
        self,
        clients: List[Client],
        per_client: int,
        next_request: Callable[[int], Tuple[Any, bytes]],
    ) -> List[Tuple[Any, Reply]]:
        """One slice of the closed loop: a thread per keep-alive
        connection, each sending ``per_client`` requests, the next only
        when the last one completed."""
        done: List[List[Tuple[Any, Reply]]] = [[] for _ in clients]

        def loop(k: int) -> None:
            for _ in range(per_client):
                tag, body = next_request(k)
                done[k].append((tag, clients[k].exchange("POST", "/run", body)))

        threads = [
            threading.Thread(target=loop, args=(k,)) for k in range(len(clients))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [pair for per_thread in done for pair in per_thread]

    def _phase(self, clock, clients, seconds, per_client, next_request, weigh):
        """Slices of the closed loop until ``seconds`` have passed.  Each
        slice is short enough for the spins around it to say how fast
        the host ran during it; returns every ``(tag, reply)``, the
        reference-second latencies, and ``weigh(slice) / ref seconds``
        per slice."""
        pairs: List[Tuple[Any, Reply]] = []
        latencies: List[float] = []
        rates: List[float] = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            done, sample = clock.measure(
                self._closed_loop, clients, per_client, next_request
            )
            pairs += done
            latencies += [reply.latency * sample.scale for _, reply in done]
            rates.append(weigh(done) / sample.ref)
        return pairs, latencies, rates

    def measure(self, clock, seconds, checks):
        cursors = list(range(self.CONNECTIONS))

        def next_hit(k: int):
            index = cursors[k] % len(self.hits)
            cursors[k] += self.CONNECTIONS
            return index, self.hits[index][0]

        lock = threading.Lock()

        def next_miss(k: int):
            with lock:
                index = self.next_miss
                self.next_miss += 1
            return self.miss_request(index)

        clients = [Client(self.port) for _ in range(self.CONNECTIONS)]
        hit_s = seconds * self.size["hit_share"]
        hits, hit_lat, hit_rates = self._phase(
            clock, clients, hit_s, self.size["slice_hits"], next_hit, len
        )
        misses, _, miss_rates = self._phase(
            clock, clients, seconds - hit_s, self.size["slice_misses"],
            next_miss,
            lambda done: sum(sim_seconds(spec) for spec, _ in done),
        )
        for client in clients:
            client.close()
        for index, reply in hits:
            self.check_hit(reply, self.hits[index][1], checks)
        miss_sims = [
            self.check_miss(reply, spec, checks) for spec, reply in misses
        ]
        raw_hit_lat = [reply.latency for _, reply in hits]
        miss_lat = [reply.latency for _, reply in misses]
        return {
            "sim_s_per_wall_s": median(miss_rates),
            "warm_p50_ms": 1e3 * median(hit_lat),
            "warm_per_s": median(hit_rates),
            "detail": {
                "connections": self.CONNECTIONS,
                "hits": len(hits),
                "misses": len(misses),
                "hit_ref_s": summary(hit_lat),
                "hit_slices_per_ref_s": summary(hit_rates),
                "miss_raw_s": summary(miss_lat),
                "miss_slices_sim_s_per_ref_s": summary(miss_rates),
            },
            "layer": {
                "serve.hit_p99_ms": 1e3 * percentile(raw_hit_lat, 99),
                "serve.hit_samples": len(hits),
                "serve_hit_req_per_s": len(hits) / sum(raw_hit_lat)
                * self.CONNECTIONS,
                "serve_hit_p50_ms": 1e3 * median(raw_hit_lat),
                "serve_miss_p50_ms": 1e3 * median(miss_lat),
                # what HTTP adds to the same work done in-process
                "serve.http_overhead_ms": 1e3 * (
                    median(raw_hit_lat) - self.inprocess_hit_s
                ),
                "serve.miss_overhead_ms": 1e3 * (
                    median(miss_lat) - median(miss_sims)
                ),
            },
        }

    # -- traced ----------------------------------------------------------
    def _stats(self, client: Client) -> Dict[str, Any]:
        return json.loads(client.exchange("GET", "/stats").body)

    def traced_pass(self, tracer, profile, index, checks):
        """A fixed request list, one at a time, alternating over the two
        connections; each request beside the same body in-process."""
        clients = [Client(self.port) for _ in range(self.CONNECTIONS)]
        state = ServeState(ResultStore(self.store_root))
        before = self._stats(clients[0])
        size = self.size
        path_lat = []

        def send(i: int, rid: str, method: str, path: str, body=None) -> Reply:
            with tracer.span("serve.request", rid=rid) as sid:
                reply = clients[i % len(clients)].exchange(method, path, body)
            if tracer.enabled and reply.marks is not None:
                t0, t1, t2, t3 = reply.marks
                for name, start, end in (
                    ("client.write", t0, t1),
                    ("server.reply", t1, t2),
                    ("client.read", t2, t3),
                ):
                    tracer.spans.append([name, start, end, sid, rid])
            return reply

        for i in range(size["traced_hits"]):
            body, expected, _ = self.hits[i % len(self.hits)]
            rid = f"hit-{i}"
            reply = send(i, rid, "POST", "/run", body)
            self.check_hit(reply, expected, checks)
            with tracer.span("serve.inprocess", rid=rid), profiled(profile):
                t0 = time.perf_counter()
                with tracer.span("serve.json"):
                    parsed = json.loads(body.decode("utf-8"))
                kind = "spec" if "spec" in parsed else "family"
                with tracer.span(f"serve.spec_for_{kind}"):
                    spec = state.spec_for(parsed)
                with tracer.span("serve.run_hit"):
                    rendered, _, was_hit, _ = state.run(spec)
                path_lat.append(time.perf_counter() - t0)
            checks.check(
                was_hit and rendered == expected,
                f"{rid}: in-process path missed or rendered differently",
            )
        for j in range(size["traced_misses"]):
            spec, body = self.miss_request(
                10_000 + index * size["traced_misses"] + j
            )
            reply = send(j, f"miss-{j}", "POST", "/run", body)
            self.check_miss(reply, spec, checks)
        query_lat, stats_lat = [], []
        for i in range(size["traced_gets"]):
            reply = send(i, f"query-{i}", "GET", "/query?family=mixed")
            checks.check(
                reply.status == 200 and len(json.loads(reply.body)) > 0,
                f"GET /query answered {reply.status}",
            )
            query_lat.append(reply.latency)
            reply = send(i, f"stats-{i}", "GET", "/stats")
            checks.check(reply.status == 200, f"GET /stats answered {reply.status}")
            stats_lat.append(reply.latency)
        after = self._stats(clients[0])
        for client in clients:
            client.close()
        if profile is not None:
            self.tottime = profile_tottime(profile)
        self.inprocess_hit_s = median(path_lat)
        out = {
            f"serve.{name}": after[name] - before[name]
            for name in ("requests", "hits", "misses", "errors")
        }
        out.update({
            "serve.query_p50_ms": 1e3 * median(query_lat),
            "serve.stats_p50_ms": 1e3 * median(stats_lat),
        })
        return out

    def layer_extras(self, tracer, checks):
        """Store reads beside workload 4's writes, and the codec."""
        store = ResultStore(self.store_root)
        for body, _, digest in self.hits:
            with tracer.span("campaign.store_get"):
                hit, result = store.get(digest)
            checks.check(hit, "stored spec vanished from the serve store")
            parsed = json.loads(body.decode("utf-8"))
            if "spec" in parsed:
                with tracer.span("scenario.codec_decode"):
                    spec = spec_from_json(parsed["spec"])
                with tracer.span("scenario.codec_encode"):
                    spec_to_json(spec)
            with tracer.span("scenario.render"):
                render_result(result)
        return {"campaign.index_rows": len(store.index.entries)}


WORKLOADS = {
    cls.name: cls
    for cls in (CellSaturated, SteadyHorizon, CampusGrid, CampaignSweep,
                ServeMixed)
}

#: End-to-end metrics, in the order BENCHMARK.json lists them.
END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_s_per_wall_s": "sim_s/s",
    "warm_p50_ms": "ms",
    "warm_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics and their units.  ``count`` metrics repeat exactly
#: for a seed and are compared exactly.
PER_LAYER_UNITS = {
    "sim.events": "count",
    "sim.timer_events": "count",
    "sim.events_per_s": "1/s",
    "sim.self_share": "share",
    "sim.kernel_ns_per_event": "ns",
    "sim.kernel_cancel_ns": "ns",
    "sim.heap_compactions": "count",
    "sim.ff_jumps": "count",
    "sim.ff_skipped_sim_s": "sim_s",
    "sim.ff_skipped_frac": "share",
    "mac.events": "count",
    "mac.self_share": "share",
    "phy.events": "count",
    "phy.self_share": "share",
    "channel.self_share": "share",
    "core.self_share": "share",
    "queueing.self_share": "share",
    "node.self_share": "share",
    "transport.events": "count",
    "transport.self_share": "share",
    "scenario.build_spec_ms": "ms",
    "scenario.compile_ms": "ms",
    "scenario.collect_ms": "ms",
    "scenario.render_ms": "ms",
    "scenario.codec_encode_ms": "ms",
    "scenario.codec_decode_ms": "ms",
    "scenario.timeline_events": "count",
    "scenario.self_share": "share",
    "campus.compile_ms": "ms",
    "campus.self_share": "share",
    "campus.roams": "count",
    "campaign.digest_ms": "ms",
    "campaign.store_put_ms": "ms",
    "campaign.store_get_ms": "ms",
    "campaign.store_open_ms": "ms",
    "campaign.store_plan_ms": "ms",
    "campaign.store_query_ms": "ms",
    "campaign.index_rows": "count",
    "campaign.executor_overhead_ms": "ms",
    "campaign.pool_overhead_ms": "ms",
    "campaign.spool_enqueue_ms": "ms",
    "campaign.spool_claim_ms": "ms",
    "campaign.spool_process_ms": "ms",
    "campaign.executed": "count",
    "campaign.hits": "count",
    "campaign.retries": "count",
    "campaign.quarantined": "count",
    "campaign.self_share": "share",
    "serve.json_ms": "ms",
    "serve.spec_for_family_ms": "ms",
    "serve.spec_for_spec_ms": "ms",
    "serve.run_hit_ms": "ms",
    "serve.http_overhead_ms": "ms",
    "serve.miss_overhead_ms": "ms",
    "serve.hit_p99_ms": "ms",
    "serve.hit_samples": "samples",
    "serve.query_p50_ms": "ms",
    "serve.stats_p50_ms": "ms",
    "serve.requests": "count",
    "serve.hits": "count",
    "serve.misses": "count",
    "serve.errors": "count",
    "serve.self_share": "share",
    "other.self_share": "share",
    "trace.overhead_ratio": "ratio",
    "harness.host_speed": "ratio",
    # front-door figures in raw host time, from the untraced leg of the
    # traced run, under the names ISSUE 12 gave them
    "share_err": "abs",
    "cli_run_s": "s",
    "cold_jobs_per_s": "1/s",
    "warm_jobs_per_s": "1/s",
    "pool_jobs_per_s": "1/s",
    "serve_hit_req_per_s": "1/s",
    "serve_hit_p50_ms": "ms",
    "serve_miss_p50_ms": "ms",
}

#: span name -> the per-layer metric its mean duration feeds.
SPAN_METRICS = {
    "scenario.build_spec": "scenario.build_spec_ms",
    "scenario.compile": "scenario.compile_ms",
    "scenario.collect": "scenario.collect_ms",
    "scenario.render": "scenario.render_ms",
    "scenario.codec_encode": "scenario.codec_encode_ms",
    "scenario.codec_decode": "scenario.codec_decode_ms",
    "campus.compile": "campus.compile_ms",
    "campaign.digest": "campaign.digest_ms",
    "campaign.store_put": "campaign.store_put_ms",
    "campaign.store_get": "campaign.store_get_ms",
    "campaign.store_open": "campaign.store_open_ms",
    "campaign.store_plan": "campaign.store_plan_ms",
    "campaign.store_query": "campaign.store_query_ms",
    "serve.json": "serve.json_ms",
    "serve.spec_for_family": "serve.spec_for_family_ms",
    "serve.spec_for_spec": "serve.spec_for_spec_ms",
    "serve.run_hit": "serve.run_hit_ms",
}
