"""Unit tests for the Policy Maker (Algorithm 2)."""

import numpy as np
import pytest

from repro.core.placement import Placement
from repro.core.policy import PolicyMaker
from repro.core.primitives import Expand, Shrink
from repro.exceptions import SchedulingError


@pytest.fixture
def policy(cost_model) -> PolicyMaker:
    return PolicyMaker(cost_model)


def skewed_assignment(num_experts=8, num_gpus=8, hot_tokens=400_000):
    """One dominant expert, everyone else light."""
    assignment = np.full((num_experts, num_gpus), 1000, dtype=np.int64)
    assignment[0, :] = hot_tokens // num_gpus
    return assignment


class TestMakePlan:
    def test_proposes_pair_for_skewed_load(self, policy):
        placement = Placement.balanced(8, 8, 2)
        decision = policy.make_plan(skewed_assignment(), placement)
        assert decision.beneficial
        kinds = {type(a) for a in decision.actions}
        assert kinds == {Expand, Shrink}

    def test_expands_the_hot_expert(self, policy):
        placement = Placement.balanced(8, 8, 2)
        decision = policy.make_plan(skewed_assignment(), placement)
        expands = [a for a in decision.actions if isinstance(a, Expand)]
        assert expands[0].expert == 0

    def test_plan_strictly_improves_modelled_time(self, policy):
        placement = Placement.balanced(8, 8, 2)
        decision = policy.make_plan(skewed_assignment(), placement)
        assert decision.time_after < decision.time_before

    def test_balanced_load_yields_empty_plan(self, policy):
        placement = Placement.balanced(8, 8, 2)
        assignment = np.full((8, 8), 5000, dtype=np.int64)
        decision = policy.make_plan(assignment, placement)
        assert not decision.beneficial
        assert decision.actions == ()

    def test_applying_plan_reduces_estimate(self, policy):
        placement = Placement.balanced(8, 8, 2)
        assignment = skewed_assignment()
        before = policy.estimate_step_time(assignment, placement)
        decision = policy.make_plan(assignment, placement)
        for action in decision.actions:
            action.apply(placement)
        after = policy.estimate_step_time(assignment, placement)
        assert after < before

    def test_never_orphans_an_expert(self, policy):
        placement = Placement.balanced(8, 8, 2)
        assignment = skewed_assignment()
        for _ in range(20):
            decision = policy.make_plan(assignment, placement)
            if not decision.beneficial:
                break
            for action in decision.actions:
                action.apply(placement)
            placement.validate()
        assert (placement.replica_counts() >= 1).all()

    def test_expand_source_prefers_packing(self, policy):
        placement = Placement.balanced(4, 4, 2)
        source = policy._expand_source(placement, 0, placement.gpus_of(0)[0])
        assert source == placement.gpus_of(0)[0]

    def test_adjustment_horizon_validation(self, cost_model):
        with pytest.raises(SchedulingError):
            PolicyMaker(cost_model, adjustment_horizon=-1)

    def test_zero_horizon_ignores_adjustment_cost(self, cost_model):
        policy = PolicyMaker(cost_model, adjustment_horizon=0)
        placement = Placement.balanced(8, 8, 2)
        decision = policy.make_plan(skewed_assignment(), placement)
        assert decision.beneficial
