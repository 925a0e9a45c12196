"""Tests for fairness indices and the fluid/task efficiency model."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis import (
    NodeSpec,
    PAPER_TABLE2_TCP_MBPS,
    Task,
    fluid_completion_times,
    jain_index,
    task_model_metrics,
)


def paper_node(name, rate):
    return NodeSpec(name, rate, beta_mbps=PAPER_TABLE2_TCP_MBPS[rate])


# ----------------------------------------------------------------------
# fairness indices
# ----------------------------------------------------------------------
def test_jain_perfectly_fair():
    assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)


def test_jain_single_user_min():
    assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)


def test_jain_accepts_dict():
    assert jain_index({"a": 2.0, "b": 2.0}) == pytest.approx(1.0)


def test_jain_all_zero_is_fair():
    assert jain_index([0.0, 0.0]) == 1.0


def test_jain_validation():
    with pytest.raises(ValueError):
        jain_index([])
    with pytest.raises(ValueError):
        jain_index([-1.0, 2.0])


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=20))
def test_jain_bounds(xs):
    idx = jain_index(xs)
    assert 1.0 / len(xs) - 1e-9 <= idx <= 1.0 + 1e-9


# ----------------------------------------------------------------------
# task model
# ----------------------------------------------------------------------
def equal_tasks(size_bits=8e6):
    return [
        Task(paper_node("slow", 1.0), size_bits),
        Task(paper_node("fast", 11.0), size_bits),
    ]


def test_rf_equal_tasks_finish_together():
    result = fluid_completion_times(equal_tasks(), "rf")
    times = list(result.completion_us.values())
    assert times[0] == pytest.approx(times[1])
    assert result.avg_task_time_us == pytest.approx(result.final_task_time_us)


def test_tf_fast_node_finishes_first():
    result = fluid_completion_times(equal_tasks(), "tf")
    assert result.completion_us["fast"] < result.completion_us["slow"]


def test_final_time_identical_under_both_notions():
    """Work conservation: the last bit leaves at the same time."""
    metrics = task_model_metrics(equal_tasks())
    assert metrics["rf"].final_task_time_us == pytest.approx(
        metrics["tf"].final_task_time_us, rel=1e-6
    )


def test_tf_avg_not_worse_than_rf():
    metrics = task_model_metrics(equal_tasks())
    assert metrics["tf"].avg_task_time_us <= metrics["rf"].avg_task_time_us


def test_slow_node_unaffected_by_tf():
    """The slow node completes at the same time under RF and TF when
    tasks are equal (Table 1's discussion)."""
    metrics = task_model_metrics(equal_tasks())
    assert metrics["tf"].completion_us["slow"] == pytest.approx(
        metrics["rf"].completion_us["slow"], rel=1e-6
    )


def test_completion_scales_with_size():
    small = fluid_completion_times(equal_tasks(4e6), "tf")
    large = fluid_completion_times(equal_tasks(8e6), "tf")
    assert large.final_task_time_us == pytest.approx(
        2 * small.final_task_time_us, rel=1e-6
    )


def test_single_task():
    result = fluid_completion_times(
        [Task(paper_node("only", 11.0), 8e6)], "tf"
    )
    # Alone, the node gets its full baseline.
    assert result.final_task_time_us == pytest.approx(
        8e6 / PAPER_TABLE2_TCP_MBPS[11.0]
    )


def test_unknown_notion_rejected():
    with pytest.raises(ValueError):
        fluid_completion_times(equal_tasks(), "max-min")


def test_duplicate_names_rejected():
    tasks = [
        Task(paper_node("x", 1.0), 1e6),
        Task(paper_node("x", 11.0), 1e6),
    ]
    with pytest.raises(ValueError):
        fluid_completion_times(tasks, "tf")


def test_task_validation():
    with pytest.raises(ValueError):
        Task(paper_node("a", 1.0), 0.0)


@given(
    st.lists(st.sampled_from([1.0, 2.0, 5.5, 11.0]), min_size=1, max_size=5),
    st.floats(min_value=1e5, max_value=1e8),
)
def test_task_model_invariants_equal_sizes(rates, bits):
    # The paper's Table 1 claims assume equal task sizes; with unequal
    # sizes the completion trajectories differ and FinalTaskTime need
    # not match.
    tasks = [Task(paper_node(f"n{i}", rate), bits) for i, rate in enumerate(rates)]
    rf = fluid_completion_times(tasks, "rf")
    tf = fluid_completion_times(tasks, "tf")
    assert tf.final_task_time_us == pytest.approx(
        rf.final_task_time_us, rel=1e-6
    )
    assert tf.avg_task_time_us <= rf.avg_task_time_us * (1 + 1e-9)
    assert all(t > 0 for t in rf.completion_us.values())
    assert all(t > 0 for t in tf.completion_us.values())


@given(
    st.lists(
        st.tuples(
            st.sampled_from([1.0, 2.0, 5.5, 11.0]),
            st.floats(min_value=1e5, max_value=1e8),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_task_model_total_work_bounds(spec):
    # With arbitrary sizes only weaker bounds hold: everything completes,
    # and no notion finishes after the slowest-possible serial schedule.
    tasks = [
        Task(paper_node(f"n{i}", rate), bits) for i, (rate, bits) in enumerate(spec)
    ]
    betas = {f"n{i}": PAPER_TABLE2_TCP_MBPS[rate] for i, (rate, _) in enumerate(spec)}
    serial_bound = sum(bits / betas[f"n{i}"] for i, (_, bits) in enumerate(spec))
    for notion in ("rf", "tf"):
        result = fluid_completion_times(tasks, notion)
        assert len(result.completion_us) == len(tasks)
        assert result.final_task_time_us <= serial_bound * (1 + 1e-6)
