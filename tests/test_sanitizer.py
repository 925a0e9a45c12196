"""The runtime invariant sanitizer: loud on corruption, invisible when clean.

Two contracts matter.  First, observation-only: a sanitized run must
execute the exact same event sequence as an unsanitized one (no
randomness drawn, nothing scheduled), so goldens hold either way.
Second, detection: each invariant — monotone time, no delivery to
detached MACs, TBR accounting, live-share stranding, end-of-run packet
conservation — must actually fire on the corruption it claims to
catch, with the component and sim-time attached to the violation.
"""

import pickle

import pytest

from repro.campus.sanitizer import CampusSanitizer
from repro.scenario import (
    FlowSpec,
    ReaperSpec,
    ScenarioSpec,
    StationCrashEvent,
    StationSpec,
    build_spec,
)
from repro.scenario.builder import ScenarioRuntime
from repro.scenario.runner import run_spec
from repro.sim.sanitizer import (
    SANITIZE_ENV,
    InvariantViolation,
    RuntimeSanitizer,
    pool_leak,
    sanitize_enabled,
)

from tests.conftest import EventLog


def _crash_spec(*, reaper, seconds=5.0):
    return ScenarioSpec(
        name="sanitize-crash",
        scheduler="tbr",
        stations=(
            StationSpec("survivor", rate_mbps=11.0),
            StationSpec("victim", rate_mbps=1.0),
        ),
        flows=(
            FlowSpec(station="survivor", kind="tcp", direction="up"),
            FlowSpec(station="victim", kind="udp", direction="down",
                     rate_mbps=2.0),
        ),
        timeline=(StationCrashEvent(at_s=1.0, station="victim"),),
        seconds=seconds,
        warmup_seconds=0.5,
        seed=1,
        reaper=reaper,
    )


def test_sanitized_run_is_byte_identical_to_unsanitized():
    spec = ScenarioSpec(
        name="sanitize-clean",
        scheduler="tbr",
        stations=(
            StationSpec("a", rate_mbps=11.0),
            StationSpec("b", rate_mbps=2.0),
        ),
        flows=(
            FlowSpec(station="a", kind="tcp", direction="up"),
            FlowSpec(station="b", kind="udp", direction="down",
                     rate_mbps=2.0),
        ),
        seconds=2.0,
        warmup_seconds=0.5,
        seed=4,
    )
    plain = run_spec(spec, sanitize=False)
    checked = run_spec(spec, sanitize=True)
    assert pickle.dumps(plain) == pickle.dumps(checked)


def test_stranded_rate_regression_is_caught():
    # The deliberate regression from the issue: crash with the reaper
    # disabled strands the victim's token rate; the live-share check
    # must catch it once the deficit outlives the grace period.
    with pytest.raises(InvariantViolation) as exc_info:
        run_spec(_crash_spec(reaper=None), sanitize=True)
    violation = exc_info.value
    assert violation.component == "tbr"
    assert "stranded" in violation.detail
    assert "victim" in violation.detail
    assert violation.t_us > 0


def test_reaper_keeps_the_same_run_clean():
    # Same crash, reaper armed: the dead peer is torn down inside the
    # grace period and the whole run sanitizes clean.
    result = run_spec(
        _crash_spec(reaper=ReaperSpec(idle_timeout_s=0.4)), sanitize=True
    )
    assert result.pool_leaked == 0


def test_pool_leak_is_detected_at_finalize():
    spec = ScenarioSpec(
        name="sanitize-leak",
        stations=(StationSpec("a", rate_mbps=11.0),),
        flows=(
            FlowSpec(station="a", kind="udp", direction="down",
                     rate_mbps=2.0),
        ),
        seconds=1.0,
        warmup_seconds=0.2,
        seed=1,
    )
    runtime = ScenarioRuntime(spec, sanitize=False)
    runtime.run()
    cell = runtime.cell
    assert pool_leak(cell) == 0
    # Manufacture the leak: take a packet out of the pool and drop it
    # on the floor (never released, never queued anywhere).
    cell.ap.packet_pool.get()
    sanitizer = RuntimeSanitizer(cell)
    with pytest.raises(InvariantViolation) as exc_info:
        sanitizer.finalize()
    assert exc_info.value.component == "packet-pool"
    assert "+1" in exc_info.value.detail


def test_time_regression_is_caught():
    runtime = ScenarioRuntime(
        ScenarioSpec(
            name="sanitize-mono",
            stations=(StationSpec("a", rate_mbps=11.0),),
            flows=(FlowSpec(station="a", kind="tcp", direction="up"),),
            seconds=0.5,
        ),
        sanitize=False,
    )
    sanitizer = RuntimeSanitizer(runtime.cell)
    sanitizer.on_event(100.0, lambda: None)
    with pytest.raises(InvariantViolation, match="regressed"):
        sanitizer.on_event(99.0, lambda: None)


def test_delivery_to_detached_mac_is_caught():
    runtime = ScenarioRuntime(
        ScenarioSpec(
            name="sanitize-detached",
            stations=(StationSpec("a", rate_mbps=11.0),),
            flows=(FlowSpec(station="a", kind="tcp", direction="up"),),
            seconds=0.5,
        ),
        sanitize=False,
    )
    cell = runtime.cell
    mac = cell.stations["a"].mac
    sanitizer = RuntimeSanitizer(cell)
    # Attached: any callback on the MAC is fine.
    sanitizer.on_event(10.0, mac._ack_timeout)
    mac.shutdown()
    with pytest.raises(InvariantViolation, match="detached"):
        sanitizer.on_event(20.0, mac._ack_timeout)
    # Guard-style fire-and-forget callbacks are exempt: they are
    # scheduled without a handle and legitimately outlive a shutdown.
    sanitizer.on_event(30.0, mac._transmit_burst_frame)


def test_sanitizer_and_a_recorder_observe_one_fast_forwarded_run():
    runtime = ScenarioRuntime(
        build_spec("steady-long", seconds=6.0), sanitize=False, fast_forward=True
    )
    sim = runtime.cell.sim
    recorder = EventLog(sim)
    sanitizer = RuntimeSanitizer(runtime.cell).install()

    class Witness:
        """Attached last: everyone before it has seen this event or jump."""

        def on_event(self, time, callback):
            assert recorder.events[-1] == (time, callback)
            assert sanitizer.events_seen == len(recorder.events)

        def on_fast_forward(self, old_now, new_now):
            assert recorder.jumps[-1] == (old_now, new_now)
            assert sanitizer._last_time == new_now

    sim.observe(Witness())
    runtime.run()
    sanitizer.finalize()
    assert sim.fast_forwards > 0
    assert len(recorder.jumps) == sim.fast_forwards
    assert len(recorder.events) == sanitizer.events_seen == sim.events_executed


def test_campus_sanitizer_refuses_a_fast_forward_jump():
    runtime = ScenarioRuntime(
        build_spec("campus", seconds=0.5, warmup_s=0.1), sanitize=False
    )
    sim = runtime.campus.sim
    CampusSanitizer(runtime.campus).install()
    with pytest.raises(InvariantViolation, match="fast-forward jump"):
        sim.fast_forward_to(sim.now + 1.0)


def test_violation_carries_structured_fields():
    violation = InvariantViolation("tbr/x", 1234.5, "it broke")
    assert violation.component == "tbr/x"
    assert violation.t_us == 1234.5
    assert violation.detail == "it broke"
    assert isinstance(violation, AssertionError)
    assert "[sanitize] tbr/x @ 1234.5us: it broke" in str(violation)


def test_env_switch_parsing(monkeypatch):
    monkeypatch.delenv(SANITIZE_ENV, raising=False)
    assert not sanitize_enabled()
    for value, expected in (
        ("1", True), ("true", True), ("YES", True),
        ("0", False), ("", False), ("no", False),
    ):
        monkeypatch.setenv(SANITIZE_ENV, value)
        assert sanitize_enabled() is expected


def test_env_switch_drives_scenario_runtime(monkeypatch):
    spec = ScenarioSpec(
        name="sanitize-env",
        stations=(StationSpec("a", rate_mbps=11.0),),
        flows=(FlowSpec(station="a", kind="tcp", direction="up"),),
        seconds=0.5,
    )
    monkeypatch.setenv(SANITIZE_ENV, "1")
    runtime = ScenarioRuntime(spec)
    assert runtime.sanitize
    monkeypatch.delenv(SANITIZE_ENV)
    assert not ScenarioRuntime(spec).sanitize
    # An explicit argument beats the environment either way.
    monkeypatch.setenv(SANITIZE_ENV, "1")
    assert not ScenarioRuntime(spec, sanitize=False).sanitize
