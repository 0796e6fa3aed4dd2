"""Edge-case tests across modules: empty inputs, extremes, formatting."""

import numpy as np
import pytest

from repro.baselines import SwipeSystem, build_context
from repro.baselines.base import StepResult
from repro.bench.reporting import _fmt, format_table
from repro.config import ClusterConfig, MoEModelConfig
from repro.core.placement import Placement
from repro.core.router import FlexibleTokenRouter
from repro.exceptions import SimulationError
from repro.runtime.executor import StepTiming
from repro.training.metrics import EfficiencyTrajectory
from repro.workload.trace import RoutingTrace

from routing_oracle import dense_routes


class TestReportingFormat:
    def test_float_formats(self):
        assert _fmt(0.0) == "0"
        assert _fmt(1.5) == "1.5"
        assert _fmt(1234.5) == "1.234e+03"
        assert _fmt(0.0001) == "1.000e-04"
        assert _fmt("text") == "text"

    def test_empty_rows_table(self):
        table = format_table(["a", "b"], [])
        assert "a" in table


class TestStepResultEdges:
    @staticmethod
    def make_timing(**overrides):
        base = dict(
            a2a_time=0.0,
            compute_time=0.0,
            sync_time=0.0,
            adjustment_blocking=0.0,
            per_gpu_compute=np.zeros(2),
        )
        base.update(overrides)
        return StepTiming(**base)

    def test_zero_token_step(self):
        result = StepResult(
            timing=self.make_timing(),
            assigned_tokens=0,
            processed_tokens=0,
            gpu_loads=np.zeros(2),
        )
        assert result.token_efficiency == 1.0
        assert result.expert_efficiency == 1.0
        assert result.balance == 1.0

    def test_zero_step_utilization(self):
        timing = self.make_timing()
        assert timing.compute_utilization == 1.0
        assert timing.step_time == 0.0


class TestTrajectoryEdges:
    def test_single_step_trajectory(self):
        traj = EfficiencyTrajectory(
            token_efficiency=np.array([0.5]),
            expert_efficiency=np.array([0.8]),
        )
        tok, exp = traj.endpoint(window=10)
        assert tok == 0.5
        assert exp == 0.8

    def test_empty_trajectory_rejected(self):
        traj = EfficiencyTrajectory(
            token_efficiency=np.array([]),
            expert_efficiency=np.array([]),
        )
        with pytest.raises(SimulationError):
            traj.endpoint()


class TestRouterEdges:
    def test_single_gpu_cluster(self):
        placement = Placement.balanced(4, 1, 4)
        assignment = np.array([[10], [20], [0], [5]])
        plan = FlexibleTokenRouter().route(assignment, placement)
        assert plan.locality_fraction == 1.0
        assert plan.gpu_loads[0] == 35

    def test_single_expert(self):
        placement = Placement.balanced(1, 4, 1)
        assignment = np.array([[10, 10, 10, 10]])
        plan = FlexibleTokenRouter().route(assignment, placement)
        assert dense_routes(plan).sum() == 40

    def test_one_token(self):
        placement = Placement.balanced(2, 2, 1)
        assignment = np.array([[1, 0], [0, 0]])
        plan = FlexibleTokenRouter().route(assignment, placement)
        assert dense_routes(plan)[0].sum() == 1


class TestSwipeEdges:
    def test_empty_step(self):
        context = build_context(
            ClusterConfig(num_nodes=1, gpus_per_node=2),
            MoEModelConfig("edge", 2, 64, 256, 4),
            seed=0,
        )
        system = SwipeSystem(context)
        result = system.step(np.zeros((4, 2), dtype=np.int64), 0)
        assert result.token_efficiency == 1.0
        assert result.diverted_tokens == 0

    def test_all_tokens_on_one_expert(self):
        context = build_context(
            ClusterConfig(num_nodes=1, gpus_per_node=2),
            MoEModelConfig("edge2", 2, 64, 256, 4),
            seed=0,
        )
        system = SwipeSystem(context)
        assignment = np.zeros((4, 2), dtype=np.int64)
        assignment[0] = [500, 500]
        result = system.step(assignment, 0)
        # 3/4 of tokens must be diverted for strict balance.
        assert result.diverted_tokens == 750
        assert result.expert_efficiency > 0.99


class TestTraceEdges:
    def test_single_step_single_expert(self):
        trace = RoutingTrace(np.array([[[7]]]))
        assert trace.expert_loads(0)[0] == 7
        assert trace.step(0).sum() == 7
