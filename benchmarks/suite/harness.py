"""Shared plumbing of the benchmark suite: paths, clocks, spans, checks.

Everything here measures the program *from outside*: wall spans around
calls into public functions, the process's own CPU clock, and cProfile
around one staged call.  Nothing in ``src/`` is touched or patched.

Two kinds of host time are reported and always named apart:

* **raw** host seconds — ``time.perf_counter`` wall, used for every
  per-layer figure and every span;
* **reference** host seconds — the CPU part of a timed region scaled by
  how fast this host ran :func:`spin` right around it (see
  :class:`HostClock`).  The end-to-end timings are reference seconds,
  because on the 2-core shared hosts this suite runs on, raw wall of a
  pure-CPU loop drifts +-25 % for seconds at a time with the neighbours'
  load, and no regression bound under 25 % could hold on it.

Simulated time (``spec.seconds + spec.warmup_seconds``) is never mixed
with either.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = SUITE_DIR / "out"
GOLDEN_DIR = REPO_ROOT / "tests" / "golden"

#: Switches that change what a run does; scrubbed from this process and
#: therefore from every child, so a developer's shell cannot leak in.
SCRUBBED_ENV = (
    "REPRO_FASTFWD",
    "REPRO_SANITIZE",
    "REPRO_CAMPAIGN_FAULTS",
    "REPRO_CACHE_DIR",
)

#: Layer names are the package names under ``src/repro``; anything else
#: the profiler sees (stdlib, builtins, other repro packages) is "other".
LAYERS = (
    "sim", "mac", "phy", "channel", "core", "queueing", "node",
    "transport", "scenario", "campus", "campaign", "serve",
)


def make_hermetic() -> None:
    """Scrub the behaviour switches and put ``src/`` on the path.

    Exits non-zero when there is no program to measure (a directory that
    holds only the benchmark), before anything is printed.
    """
    if not (SRC_DIR / "repro").is_dir():
        sys.exit(f"benchmark: no program to measure at {SRC_DIR}/repro")
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))


def child_env() -> Dict[str, str]:
    """Environment for child processes: scrubbed, ``src`` importable."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(SRC_DIR)
    return env


def fingerprint() -> Dict[str, Any]:
    """Where the numbers were taken (load is the 1-min average now)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "load_1min": os.getloadavg()[0],
    }


@contextlib.contextmanager
def scratch_dir(prefix: str) -> Iterator[Path]:
    """A fresh directory under ``out/`` (inside the checkout, never
    ``.repro-cache``), removed on exit."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"tmp-{prefix}-", dir=OUT_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
median = statistics.median


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them; a
    single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile (no interpolation beyond the samples)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * pct / 100)) - 1]


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
class Checks:
    """Counts operations attempted and failed; keeps the first reasons.

    A failed check, a non-200, a refused request and a wrong cache
    verdict all land here, and any failure makes the run incorrect.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def check(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)


# ----------------------------------------------------------------------
# host clock
# ----------------------------------------------------------------------
#: Wall of :func:`spin` on the host the first baseline was recorded on,
#: in its uncontended regime.  Only a scale: it makes reference seconds
#: read like raw seconds on that host.
REFERENCE_SPIN_S = 0.0150


def spin(n: int = 400_000) -> int:
    """The reference load: a fixed pure-interpreter loop.  It touches no
    repo code, so no change to the program can move it."""
    x = 0
    for i in range(n):
        x += i & 7
    return x


class Sample:
    """One timed region: raw wall and its reference-seconds reading."""

    __slots__ = ("wall", "ref")

    def __init__(self, wall: float, ref: float) -> None:
        self.wall = wall
        self.ref = ref

    @property
    def scale(self) -> float:
        """Multiply a raw latency inside the region by this to get
        reference seconds."""
        return self.ref / self.wall if self.wall > 0 else 1.0


class HostClock:
    """Times regions and converts their CPU share to reference seconds.

    Each region is bracketed by two :func:`spin` timings; the mean of
    the two says how fast the host was running interpreter code just
    then.  ``ref = (wall - cpu) + cpu * REFERENCE_SPIN_S / spin_wall``:
    time spent waiting (timers, fsync, a child process) is left as
    measured, only CPU seconds are rescaled.  ``cpu`` defaults to this
    process's CPU clock; a workload whose work happens in a child passes
    a reader that adds the child's.
    """

    def __init__(self, cpu: Callable[[], float] = time.process_time) -> None:
        self.cpu = cpu
        self.spins: List[float] = []
        self._before = self._spin()

    def _spin(self) -> float:
        t0 = time.perf_counter()
        spin()
        wall = time.perf_counter() - t0
        self.spins.append(wall)
        return wall

    def measure(self, fn: Callable[..., Any], *args: Any) -> Tuple[Any, Sample]:
        c0 = self.cpu()
        t0 = time.perf_counter()
        value = fn(*args)
        wall = time.perf_counter() - t0
        cpu = min(max(self.cpu() - c0, 0.0), wall)
        after = self._spin()
        factor = REFERENCE_SPIN_S / ((self._before + after) / 2.0)
        self._before = after
        return value, Sample(wall, (wall - cpu) + cpu * factor)

    @property
    def host_speed(self) -> float:
        """Median interpreter speed seen, 1.0 = the reference host."""
        return REFERENCE_SPIN_S / median(self.spins)


def process_cpu_reader(pid: int) -> Callable[[], float]:
    """CPU seconds (user + system) of another live process, from
    ``/proc/<pid>/stat`` — how a client accounts for its server's CPU."""
    tick = os.sysconf("SC_CLK_TCK")
    stat = Path(f"/proc/{pid}/stat")

    def read() -> float:
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:
            return 0.0
        return (int(fields[11]) + int(fields[12])) / tick

    return read


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans, written out once when the run ends.

    A span is ``[name, start, end, parent span id, request id]``; spans
    opened inside another become its children and inherit its request
    id, so the spans of one job or HTTP request share an identifier.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, rid: Optional[str] = None) -> Iterator[int]:
        parent = self._stack[-1] if self._stack else None
        if rid is None and parent is not None:
            rid = self.spans[parent][4]
        sid = len(self.spans)
        record = [name, time.perf_counter(), None, parent, rid]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield sid
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> List[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def mean_ms(self, name: str) -> float:
        """Mean duration of the spans called ``name`` in ms (0 if none)."""
        found = self.durations(name)
        return 1e3 * sum(found) / len(found) if found else 0.0

    def self_times(self) -> Dict[str, float]:
        """Self seconds per span name: duration minus child durations."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        out: Dict[str, float] = {}
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - children[sid]
        return out

    def dump(self, path: Path, extra: Dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(extra)
        doc["span_fields"] = ["name", "start_s", "end_s", "parent", "rid"]
        doc["spans"] = self.spans
        doc["self_time_s"] = self.self_times()
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


class NullTracer:
    """The untraced pass: same call sites, nothing recorded."""

    enabled = False

    def span(self, name: str, rid: Optional[str] = None):
        return contextlib.nullcontext()


# ----------------------------------------------------------------------
# cProfile attribution
# ----------------------------------------------------------------------
@contextlib.contextmanager
def profiled(profile) -> Iterator[None]:
    """Run the block under ``profile`` (a no-op for ``None``)."""
    if profile is None:
        yield
        return
    profile.enable()
    try:
        yield
    finally:
        profile.disable()


def layer_of(filename: str) -> str:
    """``src/repro/<pkg>/...`` -> ``<pkg>`` when it is a layer."""
    parts = Path(filename).parts
    for i in range(len(parts) - 2):
        if parts[i] == "repro" and parts[i + 1] in LAYERS:
            if i > 0 and parts[i - 1] == "src":
                return parts[i + 1]
    # src/repro/serve.py is a module, not a package.
    if filename.endswith(os.path.join("src", "repro", "serve.py")):
        return "serve"
    return "other"


def profile_tottime(profile) -> Dict[str, float]:
    """cProfile ``tottime`` summed per layer (seconds, profiler-inflated;
    only the proportions mean anything)."""
    import pstats

    totals = {layer: 0.0 for layer in LAYERS}
    totals["other"] = 0.0
    for (filename, _, _), row in pstats.Stats(profile).stats.items():
        totals[layer_of(filename)] += row[2]
    return totals


def shares(totals: Dict[str, float]) -> Dict[str, float]:
    """Normalise per-layer seconds so the shares sum to 1."""
    whole = sum(totals.values())
    if whole <= 0:
        return {layer: 0.0 for layer in totals}
    return {layer: value / whole for layer, value in totals.items()}
