"""Windowed scenario runs: per-window airtime on the one executor.

``scenario_job(spec, windows_us=cuts)`` is a plain scenario job whose
result also carries ``ScenarioResult.windows`` — the lone cell's
attributed airtime over ``(-inf, c1), [c1, c2) ... [ck, +inf)`` — so
windowed experiments land in the store like every other figure.
"""

import pytest

from repro.campaign.executor import run_jobs
from repro.campaign.job import job_params
from repro.campaign.store import ResultStore
from repro.experiments.common import competing_spec
from repro.scenario import build_spec, run_spec, scenario_job
from repro.sim import us_from_s


def test_plain_job_params_are_exactly_the_spec():
    spec = competing_spec([1.0, 11.0], seconds=1.0)
    assert job_params(scenario_job(spec)) == {"spec": spec}
    assert scenario_job(spec).digest == scenario_job(spec, windows_us=()).digest


def test_windowed_job_is_a_cache_hit_the_second_time(tmp_path):
    spec = competing_spec([1.0, 11.0], direction="down", seconds=1.0)
    cuts = tuple(us_from_s(3.0 + k * 0.25) for k in range(5))
    job = scenario_job(spec, key="w", windows_us=cuts)
    store = ResultStore(str(tmp_path / "store"))

    cold = run_jobs([job], workers=1, cache=store)
    assert cold.stats.executed == 1
    warm = run_jobs([job], workers=1, cache=store)
    assert warm.stats.executed == 0
    assert warm.stats.cached == 1

    windows = cold.experiment_results("scenario")["w"].windows
    assert len(windows) == len(cuts) + 1
    assert warm.experiment_results("scenario")["w"].windows == windows
    # The inner windows hold the measured stretch's airtime.
    assert all(sum(window.values()) > 0 for window in windows[1:-1])


def test_windows_hold_all_the_run_occupancy_joiners_included():
    # churn's guests join mid-run: they follow the spec's stations, and
    # the windows together hold every station's measured airtime.
    spec = build_spec("churn", seconds=2.0)
    result = run_spec(spec, windows_us=(us_from_s(2.0),))
    assert [list(window) for window in result.windows] == [
        ["base", "guest1"], ["base", "guest1"],
    ]
    for station, fraction in result.occupancy.items():
        assert sum(window[station] for window in result.windows) == (
            pytest.approx(fraction * us_from_s(spec.seconds), rel=1e-9)
        )


def test_campus_spec_with_windows_is_rejected():
    spec = build_spec("campus", seconds=0.5, warmup_s=0.1)
    with pytest.raises(ValueError, match="single-cell spec"):
        run_spec(spec, windows_us=(us_from_s(0.3),))


def test_a_recorded_run_never_fast_forwards():
    # Saturated downlink UDP is the regime the engine jumps over; a jump
    # appends no usage records, so with records kept it must decline
    # (``recording``) or every window it skipped would read zero airtime.
    spec = competing_spec(
        [1.0, 11.0], direction="down", transport="udp",
        seconds=10.0, warmup_seconds=2.0,
    )
    assert run_spec(spec, fast_forward=True).fast_forwards > 0
    cuts = tuple(us_from_s(2.0 + k) for k in range(11))
    jumped = run_spec(spec, fast_forward=True, windows_us=cuts)
    plain = run_spec(spec, fast_forward=False, windows_us=cuts)
    assert jumped.fast_forwards == 0
    assert jumped.windows == plain.windows
