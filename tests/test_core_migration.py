"""Unit tests for the Migrate planner."""

import numpy as np
import pytest

from repro.cluster.events import ClusterState
from repro.core.cost_model import MoECostModel
from repro.core.delta import HolderIndex
from repro.core.migration import MigrationPlanner
from repro.core.placement import Placement
from repro.core.primitives import Migrate
from repro.exceptions import SchedulingError


@pytest.fixture
def planner(cost_model, topology) -> MigrationPlanner:
    return MigrationPlanner(cost_model, topology, max_moves=3)


def scattered_placement() -> Placement:
    """Expert 0 replicated across both nodes; other experts single."""
    counts = np.zeros((8, 8), dtype=np.int64)
    for e in range(8):
        counts[e, e] = 1
    counts[0, 4] = 1  # cross-node replica of expert 0
    return Placement(counts, 2)


class TestPlanner:
    def test_no_moves_for_single_replica_placement(self, planner):
        placement = Placement.expert_parallel(8, 8)
        assignment = np.full((8, 8), 1000, dtype=np.int64)
        assert planner.plan(assignment, placement) == []

    def test_moves_strictly_improve_modelled_time(self, planner):
        placement = scattered_placement()
        assignment = np.full((8, 8), 1000, dtype=np.int64)
        assignment[0] = 40_000
        before = planner.step_time(assignment, placement)
        moves = planner.plan(assignment, placement)
        trial = placement.copy()
        for move in moves:
            move.apply(trial)
        after = planner.step_time(assignment, trial)
        if moves:
            assert after < before

    def test_returns_only_migrates(self, planner):
        placement = scattered_placement()
        assignment = np.full((8, 8), 1000, dtype=np.int64)
        assignment[0] = 40_000
        for move in planner.plan(assignment, placement):
            assert isinstance(move, Migrate)

    def test_respects_max_moves(self, cost_model, topology):
        planner = MigrationPlanner(cost_model, topology, max_moves=1)
        placement = scattered_placement()
        assignment = np.full((8, 8), 1000, dtype=np.int64)
        assignment[0] = 40_000
        assert len(planner.plan(assignment, placement)) <= 1

    def test_does_not_mutate_input_placement(self, planner):
        placement = scattered_placement()
        signature = placement.signature()
        assignment = np.full((8, 8), 1000, dtype=np.int64)
        assignment[0] = 40_000
        planner.plan(assignment, placement)
        assert placement.signature() == signature

    def test_zero_moves_allowed(self, cost_model, topology):
        planner = MigrationPlanner(cost_model, topology, max_moves=0)
        placement = scattered_placement()
        assignment = np.full((8, 8), 1000, dtype=np.int64)
        assert planner.plan(assignment, placement) == []

    def test_validation(self, cost_model, topology):
        with pytest.raises(SchedulingError):
            MigrationPlanner(cost_model, topology, max_moves=-1)
        with pytest.raises(SchedulingError):
            MigrationPlanner(cost_model, topology, max_candidates=0)


class TestPlanLeavesInputUntouched:
    """A pass reads the caller's placement and copies it on the first move
    only; the caller's counts, version and state token never change."""

    @staticmethod
    def scenario(moves: int) -> tuple[Placement, np.ndarray]:
        if moves:
            # A seeded demand on which both paths find two exchanges.
            assignment = np.random.default_rng(0).integers(0, 20_000, (8, 8))
            return Placement.balanced(8, 8, 2), assignment
        return Placement.expert_parallel(8, 8), np.full((8, 8), 1000)

    @pytest.mark.parametrize("use_delta", [True, False])
    @pytest.mark.parametrize("moves", [2, 0])
    def test_plan_does_not_touch_the_caller(
        self, cost_model, topology, use_delta, moves
    ):
        placement, assignment = self.scenario(moves)
        counts = placement.counts
        version, token = placement.version, placement.state_token
        planner = MigrationPlanner(cost_model, topology, use_delta=use_delta)
        actions = planner.plan(assignment, placement)
        assert len(actions) == moves
        assert np.array_equal(placement.counts_view, counts)
        assert placement.version == version
        assert placement.state_token == token
        trial = placement.copy()
        for action in actions:
            action.apply(trial)
        trial.validate()


class TestWeightedGpuLoads:
    """Per-GPU loads summed over the holder index match the dense
    ``counts.T @ per_replica`` product."""

    @staticmethod
    def random_placement(rng) -> Placement:
        """8 experts on 8 GPUs x 4 slots, some stacked two deep."""
        counts = np.zeros((8, 8), dtype=np.int64)
        for gpu in range(8):
            counts[gpu, gpu] += 1
            for expert in rng.integers(0, 8, size=3):
                counts[expert, gpu] += 1
        return Placement(counts, 4)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_product(self, planner, seed):
        rng = np.random.default_rng(seed)
        placement = self.random_placement(rng)
        per_replica = rng.random(8) * 1000.0
        loads = planner._weighted_gpu_loads(
            per_replica, HolderIndex.of(placement.counts_view)
        )
        dense = placement.counts_view.T.astype(float) @ per_replica
        np.testing.assert_allclose(loads, dense, rtol=1e-12, atol=0)

    def test_elastic_loads_are_speed_weighted(
        self, exact_profile, model_config, topology
    ):
        state = ClusterState(8)
        state.set_speed(3, 0.5)
        state.set_speed(6, 1.25)
        planner = MigrationPlanner(
            MoECostModel(exact_profile, model_config, cluster_state=state),
            topology,
        )
        rng = np.random.default_rng(11)
        placement = self.random_placement(rng)
        per_replica = rng.random(8) * 1000.0
        loads = planner._weighted_gpu_loads(
            per_replica, HolderIndex.of(placement.counts_view)
        )
        dense = placement.counts_view.T.astype(float) @ per_replica
        np.testing.assert_allclose(
            loads, dense / state.speed_view(), rtol=1e-12, atol=0
        )
        assert loads[3] == pytest.approx(2 * dense[3], rel=1e-12)
