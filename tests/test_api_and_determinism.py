"""Public-API surface and determinism guarantees."""

import numpy as np
import pytest

import repro
from repro.baselines import FlexMoESystem, build_context
from repro.config import ClusterConfig, MoEModelConfig, WorkloadConfig
from repro.exceptions import (
    ConfigurationError,
    PlacementError,
    ReproError,
    RoutingError,
    SchedulingError,
    SimulationError,
    TopologyError,
)
from repro.training.loop import compare_systems

from trace_helpers import make_trace


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_exceptions_share_base(self):
        for exc in (
            ConfigurationError,
            PlacementError,
            RoutingError,
            SchedulingError,
            SimulationError,
            TopologyError,
        ):
            assert issubclass(exc, ReproError)

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_core_exports_resolve(self):
        import repro.core as core

        for name in core.__all__:
            assert hasattr(core, name), name

    def test_baselines_exports_resolve(self):
        import repro.baselines as baselines

        for name in baselines.__all__:
            assert hasattr(baselines, name), name


class TestDeterminism:
    """Identical seeds must yield identical simulations end to end."""

    @staticmethod
    def run_once(seed: int):
        model = MoEModelConfig("det", 2, 128, 512, 8)
        cluster = ClusterConfig(num_nodes=1, gpus_per_node=4)
        workload = WorkloadConfig(
            tokens_per_step=131_072, num_steps=6, seed=seed
        )
        cmp = compare_systems(
            model, cluster, workload,
            systems=[FlexMoESystem], seed=seed,
        )
        return cmp["FlexMoE"].step_times

    def test_same_seed_same_times(self):
        a = self.run_once(5)
        b = self.run_once(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_differs(self):
        a = self.run_once(5)
        b = self.run_once(6)
        assert not np.array_equal(a, b)

    def test_trace_generation_deterministic(self):
        cfg = WorkloadConfig(tokens_per_step=10_000, num_steps=4, seed=9)
        assert make_trace(8, 4, cfg) == make_trace(8, 4, cfg)

    def test_same_seed_system_reproduces_run(self):
        model = MoEModelConfig("det2", 2, 128, 512, 8)
        cluster = ClusterConfig(num_nodes=1, gpus_per_node=4)
        trace = make_trace(
            8, 4, WorkloadConfig(tokens_per_step=65_536, num_steps=5, seed=3)
        )

        def balances():
            system = FlexMoESystem(build_context(cluster, model, seed=3))
            return [system.step(trace.step(t), t).balance for t in range(5)]

        assert balances() == balances()


class TestQuickSimulation:
    def test_quickstart_entry_point(self):
        result = repro.quick_simulation(
            num_gpus=4, num_experts=8, num_steps=5
        )
        assert "FlexMoE" in result.systems
        assert result["FlexMoE"].mean_step_time > 0
