"""Unit tests for the MoE cost models (Eqs. 5, 7, 8, 9)."""

import numpy as np
import pytest

from repro.core.placement import Placement
from repro.core.primitives import Expand, Migrate, Shrink
from repro.core.router import FlexibleTokenRouter
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


class TestAllToAllCost:
    def test_pure_local_traffic_free(self, cost_model, placement):
        routes = np.zeros((8, 8, 8))
        for g in range(8):
            routes[0, g, g] = 1000  # all tokens stay local
        times = cost_model.all_to_all_times(routes)
        assert np.allclose(times, 0.0)

    def test_four_passes_counted(self, cost_model, model_config, exact_profile):
        routes = np.zeros((8, 8, 8))
        routes[0, 0, 1] = 1000
        times = cost_model.all_to_all_times(routes)
        expected = 4 * 1000 * model_config.token_bytes / exact_profile.link_bandwidth(0, 1)
        assert times[1] == pytest.approx(expected)

    def test_inter_node_traffic_costlier(self, cost_model):
        intra = np.zeros((8, 8, 8))
        intra[0, 0, 1] = 1000
        inter = np.zeros((8, 8, 8))
        inter[0, 0, 4] = 1000
        assert (
            cost_model.all_to_all_times(inter).max()
            > cost_model.all_to_all_times(intra).max()
        )


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
        breakdown = cost_model.step_breakdown(plan.dense(), placement)
        assert breakdown.step_time == pytest.approx(
            breakdown.per_gpu_total.max()
        )

    def test_monotone_in_load(self, cost_model, placement, assignment):
        plan = FlexibleTokenRouter().route(assignment, placement)
        t1 = cost_model.step_time(plan.dense(), placement)
        t2 = cost_model.step_time(plan.dense() * 2, placement)
        assert t2 > t1

    def test_utilization_in_unit_interval(self, cost_model, placement, assignment):
        plan = FlexibleTokenRouter().route(assignment, placement)
        breakdown = cost_model.step_breakdown(plan.dense(), placement)
        assert 0.0 <= breakdown.compute_utilization <= 1.0

    def test_expert_count_mismatch_rejected(self, cost_model, placement):
        with pytest.raises(RoutingError):
            cost_model.step_breakdown(np.zeros((3, 8, 8)), placement)
