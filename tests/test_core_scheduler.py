"""Unit tests for the Scheduler loop (Algorithm 1)."""

import numpy as np
import pytest

from repro.config import SchedulerConfig
from repro.core.placement import Placement
from repro.core.policy import PolicyMaker
from repro.core.scheduler import Scheduler
from repro.exceptions import SchedulingError


def make_scheduler(cost_model, topology, **config_overrides):
    defaults = dict(slots_per_gpu=2, balance_threshold=1.15)
    defaults.update(config_overrides)
    config = SchedulerConfig(**defaults)
    placement = Placement.balanced(8, topology.num_gpus, config.slots_per_gpu)
    policy = PolicyMaker(cost_model)
    return Scheduler(placement, policy, config, topology)


def skewed(num_experts=8, num_gpus=8):
    assignment = np.full((num_experts, num_gpus), 1000, dtype=np.int64)
    assignment[0, :] = 50_000
    return assignment


def balanced(num_experts=8, num_gpus=8):
    return np.full((num_experts, num_gpus), 5000, dtype=np.int64)


class TestTriggering:
    def test_balanced_load_does_not_trigger(self, cost_model, topology):
        scheduler = make_scheduler(cost_model, topology)
        outcome = scheduler.on_step(balanced(), 0)
        assert not outcome.triggered
        assert outcome.actions == ()

    def test_skewed_load_triggers(self, cost_model, topology):
        scheduler = make_scheduler(cost_model, topology)
        outcome = scheduler.on_step(skewed(), 0)
        assert outcome.triggered

    def test_static_mode_triggers_on_interval(self, cost_model, topology):
        scheduler = make_scheduler(
            cost_model, topology, mode="static", static_interval=5
        )
        assert scheduler.on_step(balanced(), 0).triggered
        assert not scheduler.on_step(balanced(), 3).triggered
        assert scheduler.on_step(balanced(), 5).triggered

    def test_variance_metric_mode(self, cost_model, topology):
        scheduler = make_scheduler(
            cost_model, topology, metric="variance", balance_threshold=1.05
        )
        assert not scheduler.on_step(balanced(), 0).triggered
        assert scheduler.on_step(skewed(), 0).triggered


class TestAdjustmentLoop:
    def test_improves_metric_on_skewed_load(self, cost_model, topology):
        scheduler = make_scheduler(cost_model, topology)
        assignment = skewed()
        outcome = scheduler.on_step(assignment, 0)
        assert outcome.metric_after <= outcome.metric_before

    def test_repeated_steps_converge(self, cost_model, topology):
        scheduler = make_scheduler(cost_model, topology)
        assignment = skewed()
        for step in range(12):
            outcome = scheduler.on_step(assignment, step)
        later_metric = outcome.metric_after
        first_metric = scheduler.history[0].metric_before
        assert later_metric < first_metric

    def test_placement_stays_valid_throughout(self, cost_model, topology, rng):
        placement = Placement.balanced(8, topology.num_gpus, 2)
        scheduler = Scheduler(
            placement, PolicyMaker(cost_model),
            SchedulerConfig(slots_per_gpu=2, balance_threshold=1.15), topology,
        )
        for step in range(10):
            assignment = rng.integers(0, 20_000, (8, 8))
            scheduler.on_step(assignment, step)
            placement.validate()

    def test_max_rounds_respected(self, cost_model, topology, monkeypatch):
        import repro.core.scheduler as scheduler_module

        monkeypatch.setattr(scheduler_module, "MAX_PLANS_PER_ROUND", 1)
        scheduler = make_scheduler(cost_model, topology)
        outcome = scheduler.on_step(skewed(), 0)
        # Unbounded, this skew takes five rounds.
        assert outcome.rounds == 1

    def test_migrate_disabled(self, cost_model, topology):
        from repro.core.primitives import Migrate

        scheduler = make_scheduler(cost_model, topology, migrate=False)
        outcome = scheduler.on_step(skewed(), 0)
        assert not any(isinstance(a, Migrate) for a in outcome.actions)


class TestBookkeeping:
    def test_history_records_every_step(self, cost_model, topology):
        scheduler = make_scheduler(cost_model, topology)
        for step in range(5):
            scheduler.on_step(balanced(), step)
        assert len(scheduler.history) == 5

    def test_trigger_rate(self, cost_model, topology):
        scheduler = make_scheduler(cost_model, topology)
        scheduler.on_step(balanced(), 0)
        scheduler.on_step(skewed(), 1)
        assert [o.triggered for o in scheduler.history] == [False, True]


class TestMigratePath:
    """The Migrate planner follows the Policy Maker it is given."""

    @staticmethod
    def build(cost_model, topology, use_delta, **config):
        return Scheduler(
            Placement.balanced(8, topology.num_gpus, 2),
            PolicyMaker(cost_model, use_delta=use_delta),
            SchedulerConfig(slots_per_gpu=2, **config),
            topology,
        )

    def test_reference_policy_gets_reference_migrate(
        self, cost_model, topology
    ):
        scheduler = self.build(cost_model, topology, use_delta=False)
        assert scheduler.migration.delta is None

    def test_delta_policy_shares_its_evaluator(self, cost_model, topology):
        scheduler = self.build(cost_model, topology, use_delta=True)
        assert scheduler.migration.delta is scheduler.policy.delta

    def test_reference_policy_rejects_hierarchical_search(
        self, cost_model, topology
    ):
        with pytest.raises(SchedulingError, match="hierarchical"):
            self.build(
                cost_model, topology, use_delta=False,
                placement_search="hierarchical",
            )
