"""Tests for TrainingRunResult aggregation and time-to-quality coupling."""

import numpy as np
import pytest

from repro.baselines.base import StepResult
from repro.runtime.executor import StepTiming
from repro.training.convergence import ConvergenceModel
from repro.training.loop import ComparisonResult, TrainingRunResult


def make_result(step_time=0.01, assigned=1000, processed=1000, diverted=0):
    timing = StepTiming(
        a2a_time=step_time / 2,
        compute_time=step_time / 2,
        sync_time=0.0,
        adjustment_blocking=0.0,
        per_gpu_compute=np.full(2, step_time / 2),
    )
    return StepResult(
        timing=timing,
        assigned_tokens=assigned,
        processed_tokens=processed,
        diverted_tokens=diverted,
        dropped_tokens=assigned - processed - diverted,
        gpu_loads=np.array([processed // 2, processed - processed // 2]),
    )


class TestTrainingRunResult:
    def test_aggregates(self):
        run = TrainingRunResult(
            system="x",
            results=tuple(make_result(0.01 * (i + 1)) for i in range(4)),
        )
        assert run.mean_step_time == pytest.approx(0.025)
        assert run.total_time == pytest.approx(0.1)
        assert run.mean_token_efficiency == 1.0
        assert run.diverted_fraction == 0.0

    def test_moe_layer_scaling(self):
        run = TrainingRunResult(
            system="x", results=(make_result(0.01),), moe_layers=6
        )
        assert run.total_time == pytest.approx(0.06)

    def test_time_to_quality_penalizes_drops(self):
        clean = TrainingRunResult(
            system="clean", results=(make_result(0.01, 1000, 1000),)
        )
        droppy = TrainingRunResult(
            system="droppy", results=(make_result(0.01, 1000, 500),)
        )
        model = ConvergenceModel(alpha=1.0)
        assert droppy.time_to_quality(100, model) == pytest.approx(
            2 * clean.time_to_quality(100, model)
        )

    def test_diverted_tokens_partially_credited(self):
        diverted = TrainingRunResult(
            system="swipe",
            results=(make_result(0.01, 1000, 500, diverted=500),),
        )
        dropped = TrainingRunResult(
            system="ds", results=(make_result(0.01, 1000, 500),)
        )
        model = ConvergenceModel(alpha=1.0, diverted_credit=0.5)
        # Diversion retains half the signal: 0.5 + 0.25 = 0.75 effective.
        assert diverted.time_to_quality(100, model) < dropped.time_to_quality(
            100, model
        )

    def test_trajectory_lengths(self):
        run = TrainingRunResult(
            system="x", results=tuple(make_result() for _ in range(5))
        )
        traj = run.trajectory
        assert len(traj.token_efficiency) == 5


class TestComparisonResult:
    def test_speedup_directions(self):
        fast = TrainingRunResult(
            system="fast", results=(make_result(0.01),)
        )
        slow = TrainingRunResult(
            system="slow", results=(make_result(0.02),)
        )
        cmp = ComparisonResult(runs={"fast": fast, "slow": slow})
        assert cmp.speedup("fast", baseline="slow") == pytest.approx(2.0)
        assert cmp.speedup("slow", baseline="fast") == pytest.approx(0.5)

    def test_summary_contains_all_systems(self):
        cmp = ComparisonResult(
            runs={
                "a": TrainingRunResult("a", (make_result(),)),
                "b": TrainingRunResult("b", (make_result(),)),
            }
        )
        text = cmp.summary()
        assert "a" in text and "b" in text

    def test_ttq_speedup_uses_convergence(self):
        clean = TrainingRunResult("clean", (make_result(0.02, 1000, 1000),))
        droppy = TrainingRunResult("droppy", (make_result(0.01, 1000, 400),))
        model = ConvergenceModel(alpha=1.25)
        # droppy is 2x faster per step but pays (1/0.4)^1.25 ~ 3.1x steps.
        assert droppy.time_to_quality(10_000, model) > clean.time_to_quality(
            10_000, model
        )
