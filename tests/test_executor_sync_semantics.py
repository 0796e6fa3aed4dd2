"""Focused tests for the executor's AllReduce phase semantics."""

import numpy as np
import pytest

from repro.core.placement import Placement
from repro.runtime.executor import StepExecutor


@pytest.fixture
def exact_executor(topology, model_config) -> StepExecutor:
    return StepExecutor(topology, model_config, jitter=0.0, seed=0)


def placement_with_groups(groups: dict[int, tuple[int, ...]]) -> Placement:
    """8-expert placement over 8 GPUs with the given replica groups."""
    counts = Placement.expert_parallel(8, 8).counts
    for expert, gpus in groups.items():
        counts[expert, :] = 0
        for gpu in gpus:
            counts[expert, gpu] = 1
    slots = int(counts.sum(axis=0).max())
    return Placement(counts, slots)


class TestSyncChaining:
    def test_shared_member_serializes_groups(
        self, exact_executor, collectives, model_config
    ):
        """A GPU in two replica groups issues both AllReduces in sequence."""
        placement = placement_with_groups({0: (0, 1), 1: (0, 2)})
        timing = exact_executor.execute(np.zeros((8, 8)), placement)
        t_a = collectives.allreduce_time(model_config.expert_bytes, (0, 1))
        t_b = collectives.allreduce_time(model_config.expert_bytes, (0, 2))
        assert timing.sync_time == pytest.approx(t_a + t_b)

    def test_disjoint_groups_overlap(
        self, exact_executor, collectives, model_config
    ):
        """Groups with no shared GPU run concurrently: phase = slowest."""
        placement = placement_with_groups({0: (0, 1), 1: (2, 3)})
        timing = exact_executor.execute(np.zeros((8, 8)), placement)
        t_a = collectives.allreduce_time(model_config.expert_bytes, (0, 1))
        t_b = collectives.allreduce_time(model_config.expert_bytes, (2, 3))
        assert timing.sync_time == pytest.approx(max(t_a, t_b))

    def test_cross_node_group_dominates(
        self, exact_executor, collectives, model_config
    ):
        placement = placement_with_groups({0: (0, 1), 1: (2, 4)})
        timing = exact_executor.execute(np.zeros((8, 8)), placement)
        t_inter = collectives.allreduce_time(
            model_config.expert_bytes, (2, 4)
        )
        assert timing.sync_time == pytest.approx(t_inter)

    def test_same_group_shared_across_experts_reuses_time(
        self, exact_executor, collectives, model_config
    ):
        """Two experts with identical groups still pay two AllReduces."""
        placement = placement_with_groups({0: (0, 1), 1: (0, 1)})
        timing = exact_executor.execute(np.zeros((8, 8)), placement)
        t_one = collectives.allreduce_time(model_config.expert_bytes, (0, 1))
        assert timing.sync_time == pytest.approx(2 * t_one)
