"""Unit tests for the MoE cost models (Eqs. 5, 7, 8, 9)."""

import numpy as np
import pytest

from repro.core.placement import Placement
from repro.core.primitives import Expand, Migrate, Shrink
from repro.core.router import FlexibleTokenRouter, RoutingPlan, SpillRoutes
from repro.exceptions import RoutingError


class TestComputeCost:
    def test_eq7_linear_in_tokens(self, cost_model):
        t1 = cost_model.compute_time(1000, 0)
        t2 = cost_model.compute_time(2000, 0)
        assert t2 == pytest.approx(2 * t1)

    def test_zero_tokens_free(self, cost_model):
        assert cost_model.compute_time(0, 0) == 0.0

    def test_negative_rejected(self, cost_model):
        with pytest.raises(RoutingError):
            cost_model.compute_time(-1, 0)


def flow_plan(flow: np.ndarray, num_experts: int = 8) -> RoutingPlan:
    """A plan carrying only a ``(src, dst)`` flow: Eq. 8 reads nothing else."""
    num_gpus = flow.shape[0]
    empty = np.zeros(0, dtype=np.int64)
    return RoutingPlan(
        local=np.zeros((num_experts, num_gpus)),
        spill=SpillRoutes(empty, empty, empty, empty),
        capacities=np.zeros(num_experts),
        flow=flow,
    )


class TestAllToAllCost:
    def test_pure_local_traffic_free(self, cost_model, placement):
        flow = np.diag(np.full(8, 1000.0))  # all tokens stay local
        times = cost_model.step_breakdown(flow_plan(flow), placement)
        assert np.allclose(times.all_to_all, 0.0)

    def test_four_passes_counted(
        self, cost_model, model_config, exact_profile, placement
    ):
        flow = np.zeros((8, 8))
        flow[0, 1] = 1000
        times = cost_model.step_breakdown(flow_plan(flow), placement)
        expected = 4 * 1000 * model_config.token_bytes / exact_profile.link_bandwidth(0, 1)
        assert times.all_to_all[1] == pytest.approx(expected)

    def test_inter_node_traffic_costlier(self, cost_model, placement):
        intra = np.zeros((8, 8))
        intra[0, 1] = 1000
        inter = np.zeros((8, 8))
        inter[0, 4] = 1000

        def a2a(flow):
            return cost_model.step_breakdown(
                flow_plan(flow), placement
            ).all_to_all.max()

        assert a2a(inter) > a2a(intra)


class TestSyncCost:
    def test_single_replica_free(self, cost_model):
        placement = Placement.expert_parallel(8, 8)
        assert np.allclose(cost_model.sync_times(placement), 0.0)

    def test_replicated_expert_charges_members(self, cost_model):
        counts = Placement.expert_parallel(8, 8).counts
        counts[0, 1] = 1  # expert 0 replicated onto gpu 1
        placement = Placement(counts, 2)
        times = cost_model.sync_times(placement)
        assert times[0] > 0
        assert times[1] > 0
        assert times[2] == 0

    def test_wider_groups_cost_more_per_gpu(self, cost_model):
        counts = Placement.expert_parallel(8, 8).counts
        counts[0, 4] = 1
        narrow = Placement(counts.copy(), 3)
        counts[0, 5] = 1
        counts[0, 6] = 1
        wide = Placement(counts, 3)
        assert (
            cost_model.sync_times(wide)[0]
            > cost_model.sync_times(narrow)[0]
        )


class TestAdjustmentCost:
    def test_shrink_free(self, cost_model):
        assert cost_model.adjustment_cost([Shrink(0, 0)]) == 0.0

    def test_intra_gpu_expand_free(self, cost_model):
        assert cost_model.adjustment_cost([Expand(0, 1, 1)]) == 0.0

    def test_inter_gpu_expand_charged(self, cost_model, model_config, exact_profile):
        cost = cost_model.adjustment_cost([Expand(0, 4, 0)])
        expected = model_config.expert_state_bytes / exact_profile.link_bandwidth(0, 4)
        assert cost == pytest.approx(expected)

    def test_migrate_charged_both_ways_overlapped(self, cost_model, model_config, exact_profile):
        cost = cost_model.adjustment_cost([Migrate(0, 0, 1, 4)])
        one_way = model_config.expert_state_bytes / exact_profile.link_bandwidth(0, 4)
        assert cost == pytest.approx(one_way)


class TestStepBreakdown:
    def test_step_time_is_max_over_gpus(self, cost_model, placement, assignment):
        plan = FlexibleTokenRouter().route(assignment, placement)
        breakdown = cost_model.step_breakdown(plan, placement)
        assert breakdown.step_time == pytest.approx(
            breakdown.per_gpu_total.max()
        )

    def test_monotone_in_load(self, cost_model, placement, assignment):
        router = FlexibleTokenRouter()
        t1 = cost_model.step_time(router.route(assignment, placement), placement)
        t2 = cost_model.step_time(
            router.route(assignment * 2, placement), placement
        )
        assert t2 > t1

    def test_utilization_in_unit_interval(self, cost_model, placement, assignment):
        plan = FlexibleTokenRouter().route(assignment, placement)
        breakdown = cost_model.step_breakdown(plan, placement)
        utilization = (breakdown.compute / breakdown.step_time).mean()
        assert 0.0 <= utilization <= 1.0

    def test_expert_count_mismatch_rejected(self, cost_model, placement):
        plan = flow_plan(np.zeros((8, 8)), num_experts=3)
        with pytest.raises(RoutingError):
            cost_model.step_breakdown(plan, placement)
