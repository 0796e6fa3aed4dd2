"""Unit tests for the four MoE training systems."""

import numpy as np
import pytest

from repro import telemetry
from repro.baselines import (
    ExpertParallelSystem,
    FasterMoESystem,
    FlexMoESystem,
    SwipeSystem,
    build_context,
)
from repro.baselines.expert_parallel import apply_capacity
from repro.baselines.swipe import rebalance_strict
from repro.config import ClusterConfig, MoEModelConfig, SchedulerConfig


@pytest.fixture(scope="module")
def context():
    cluster = ClusterConfig(num_nodes=2, gpus_per_node=4)
    model = MoEModelConfig("sys-test", 4, 256, 1024, 8)
    return build_context(cluster, model, seed=0)


def skewed_assignment(rng, num_experts=8, num_gpus=8, total=400_000):
    probs = np.arange(1, num_experts + 1, dtype=float) ** -1.3
    probs /= probs.sum()
    frame = np.zeros((num_experts, num_gpus), dtype=np.int64)
    per_gpu = total // num_gpus
    for g in range(num_gpus):
        frame[:, g] = rng.multinomial(per_gpu, probs)
    return frame


class TestApplyCapacity:
    def test_no_overflow_untouched(self):
        assignment = np.array([[5, 5], [3, 3]])
        capped, dropped = apply_capacity(assignment, 100)
        assert dropped == 0
        assert np.array_equal(capped, assignment)

    def test_overflow_dropped_proportionally(self):
        assignment = np.array([[60, 40], [0, 0]])
        capped, dropped = apply_capacity(assignment, 50)
        assert dropped == 50
        assert capped[0].sum() == 50
        assert capped[0, 0] >= capped[0, 1]

    def test_never_negative(self, rng):
        assignment = rng.integers(0, 100, (4, 4))
        capped, _ = apply_capacity(assignment, 10)
        assert (capped >= 0).all()


class TestRebalanceStrict:
    def test_perfectly_balanced_output(self, rng):
        assignment = skewed_assignment(rng)
        balanced, diverted = rebalance_strict(assignment)
        totals = balanced.sum(axis=1)
        assert totals.max() - totals.min() <= 1
        assert diverted > 0

    def test_preserves_per_gpu_origin_counts(self, rng):
        assignment = skewed_assignment(rng)
        balanced, _ = rebalance_strict(assignment)
        assert np.array_equal(
            balanced.sum(axis=0), assignment.sum(axis=0)
        )

    def test_already_balanced_no_diversion(self):
        assignment = np.full((4, 4), 25, dtype=np.int64)
        balanced, diverted = rebalance_strict(assignment)
        assert diverted == 0
        assert np.array_equal(balanced, assignment)


class TestExpertParallelSystem:
    def test_drops_reduce_token_efficiency(self, context, rng):
        system = ExpertParallelSystem(context, capacity_factor=1.0)
        result = system.step(skewed_assignment(rng), 0)
        assert result.token_efficiency < 1.0
        assert result.dropped_tokens > 0

    def test_uncapped_processes_everything(self, context, rng):
        system = ExpertParallelSystem(context, capacity_factor=None)
        result = system.step(skewed_assignment(rng), 0)
        assert result.token_efficiency == 1.0

    def test_capped_faster_than_uncapped(self, context, rng):
        assignment = skewed_assignment(rng)
        capped = ExpertParallelSystem(context, capacity_factor=1.0).step(assignment, 0)
        uncapped = ExpertParallelSystem(context, capacity_factor=None).step(assignment, 0)
        assert capped.step_time < uncapped.step_time


class TestSwipeSystem:
    def test_perfect_expert_efficiency(self, context, rng):
        system = SwipeSystem(context)
        result = system.step(skewed_assignment(rng), 0)
        assert result.expert_efficiency > 0.99
        assert result.diverted_tokens > 0
        assert result.token_efficiency < 1.0


class TestFasterMoESystem:
    def test_never_drops_tokens(self, context, rng):
        system = FasterMoESystem(context)
        result = system.step(skewed_assignment(rng), 0)
        assert result.token_efficiency == 1.0

    def test_shadows_hot_experts(self, context, rng):
        system = FasterMoESystem(context)
        shadows = system.select_shadows(skewed_assignment(rng))
        assert 0 in shadows  # hottest expert gets shadowed

    def test_balanced_load_no_shadows(self, context):
        system = FasterMoESystem(context)
        assignment = np.full((8, 8), 10_000, dtype=np.int64)
        assert system.select_shadows(assignment) == set()


class TestFlexMoESystem:
    def test_never_drops_tokens(self, context, rng):
        system = FlexMoESystem(context)
        result = system.step(skewed_assignment(rng), 0)
        assert result.token_efficiency == 1.0

    def test_balance_improves_over_steps(self, context, rng):
        system = FlexMoESystem(context)
        assignment = skewed_assignment(rng)
        first = system.step(assignment, 0)
        last = first
        for step in range(1, 12):
            last = system.step(assignment, step)
        assert last.balance < first.balance

    def test_placement_valid_throughout(self, context, rng):
        system = FlexMoESystem(context)
        for step in range(8):
            system.step(skewed_assignment(rng), step)
            system.placement.validate()
            system.target_placement.validate()

    def test_best_effort_pipeline_commits_eventually(self, context, rng):
        system = FlexMoESystem(context)
        assignment = skewed_assignment(rng)
        for step in range(15):
            system.step(assignment, step)
        assert system.pending_adjustments == 0
        assert system.placement == system.target_placement

    def test_synchronous_mode_blocks(self, context, rng):
        config = SchedulerConfig(best_effort=False)
        system = FlexMoESystem(context, scheduler_config=config)
        result = system.step(skewed_assignment(rng), 0)
        if result.scheduling_actions:
            assert result.timing.adjustment_blocking > 0

    def test_triggers_reach_telemetry_through_engine_taps(self, context, rng):
        """Each triggered round is counted and put on the decision
        timeline by the one-layer engine the system runs on."""
        system = FlexMoESystem(context)
        with telemetry.session(reuse=False) as tel:
            for step in range(12):
                system.step(skewed_assignment(rng), step)
        history = system._layer.scheduler.history
        triggered = sum(outcome.triggered for outcome in history)
        assert triggered > 0
        assert tel.registry.snapshot()["counters"]["scheduler.triggers"] == (
            triggered
        )
        decisions = tel.timeline.of_kind("trigger")
        assert len(decisions) == triggered
        assert {event.subject for event in decisions} == {"layer[0]"}

    def test_rejects_wrong_shape(self, context):
        system = FlexMoESystem(context)
        from repro.exceptions import SimulationError

        with pytest.raises(SimulationError):
            system.step(np.zeros((3, 8), dtype=np.int64), 0)
