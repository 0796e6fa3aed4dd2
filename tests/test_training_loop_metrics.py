"""Unit tests for the training loop, metrics and convergence model."""

import pytest

from repro.baselines import ExpertParallelSystem, FlexMoESystem, build_context
from repro.config import ClusterConfig, MoEModelConfig, WorkloadConfig
from repro.exceptions import SimulationError
from repro.training.convergence import ConvergenceModel
from repro.training.loop import compare_systems, simulate_training
from repro.training.metrics import summarize_run, trajectory_from_results

from trace_helpers import make_trace


@pytest.fixture(scope="module")
def small_setup():
    cluster = ClusterConfig(num_nodes=2, gpus_per_node=4)
    model = MoEModelConfig("loop-test", 4, 256, 1024, 8)
    workload = WorkloadConfig(tokens_per_step=262_144, num_steps=8, seed=2)
    return model, cluster, workload


class TestSimulateTraining:
    def test_run_covers_all_steps(self, small_setup):
        model, cluster, workload = small_setup
        context = build_context(cluster, model, seed=0)
        trace = make_trace(model.num_experts, context.topology.num_gpus,
                           workload)
        run = simulate_training(ExpertParallelSystem(context), trace)
        assert len(run.results) == trace.num_steps
        assert run.total_time > 0

    def test_warmup_excluded(self, small_setup):
        model, cluster, workload = small_setup
        context = build_context(cluster, model, seed=0)
        trace = make_trace(model.num_experts, context.topology.num_gpus,
                           workload)
        run = simulate_training(
            ExpertParallelSystem(context), trace, warmup=3
        )
        assert len(run.results) == trace.num_steps - 3

    def test_invalid_warmup_rejected(self, small_setup):
        model, cluster, workload = small_setup
        context = build_context(cluster, model, seed=0)
        trace = make_trace(model.num_experts, context.topology.num_gpus,
                           workload)
        with pytest.raises(SimulationError):
            simulate_training(
                ExpertParallelSystem(context), trace, warmup=trace.num_steps
            )

    def test_moe_layers_scale_total_time(self, small_setup):
        model, cluster, workload = small_setup
        context = build_context(cluster, model, seed=0)
        trace = make_trace(model.num_experts, context.topology.num_gpus,
                           workload)
        one = simulate_training(
            ExpertParallelSystem(context), trace, moe_layers=1
        )
        four = simulate_training(
            ExpertParallelSystem(context), trace, moe_layers=4
        )
        assert four.total_time == pytest.approx(4 * one.total_time, rel=0.2)


class TestCompareSystems:
    def test_all_systems_run_same_trace(self, small_setup):
        model, cluster, workload = small_setup
        cmp = compare_systems(
            model, cluster, workload,
            systems=[ExpertParallelSystem, FlexMoESystem],
        )
        assert set(cmp.systems) == {"DeepSpeed", "FlexMoE"}
        ds = cmp["DeepSpeed"]
        fm = cmp["FlexMoE"]
        assert len(ds.results) == len(fm.results)
        # Same assigned tokens per step: identical trace.
        assert [r.assigned_tokens for r in ds.results] == [
            r.assigned_tokens for r in fm.results
        ]

    def test_flexmoe_full_token_efficiency(self, small_setup):
        model, cluster, workload = small_setup
        cmp = compare_systems(
            model, cluster, workload,
            systems=[ExpertParallelSystem, FlexMoESystem],
        )
        assert cmp["FlexMoE"].mean_token_efficiency == 1.0
        assert cmp["DeepSpeed"].mean_token_efficiency < 1.0

    def test_speedup_and_summary(self, small_setup):
        model, cluster, workload = small_setup
        cmp = compare_systems(
            model, cluster, workload,
            systems=[ExpertParallelSystem, FlexMoESystem],
        )
        assert cmp.speedup("FlexMoE") > 0
        assert "FlexMoE" in cmp.summary()


class TestMetrics:
    def test_summary_keys(self, small_setup):
        model, cluster, workload = small_setup
        context = build_context(cluster, model, seed=0)
        trace = make_trace(model.num_experts, context.topology.num_gpus,
                           workload)
        run = simulate_training(ExpertParallelSystem(context), trace)
        summary = summarize_run(list(run.results))
        for key in ("mean_step_time", "mean_token_efficiency", "total_time"):
            assert key in summary

    def test_trajectory(self, small_setup):
        model, cluster, workload = small_setup
        context = build_context(cluster, model, seed=0)
        trace = make_trace(model.num_experts, context.topology.num_gpus,
                           workload)
        run = simulate_training(ExpertParallelSystem(context), trace)
        traj = trajectory_from_results(list(run.results))
        tok, exp = traj.endpoint(window=3)
        assert 0 <= tok <= 1
        assert 0 <= exp <= 1
        assert traj.distance_to_ideal() >= 0

    def test_empty_results_rejected(self):
        with pytest.raises(SimulationError):
            summarize_run([])


class TestConvergenceModel:
    def test_full_efficiency_multiplier_one(self):
        model = ConvergenceModel()
        assert model.iteration_multiplier(1.0) == 1.0

    def test_dropping_increases_iterations(self):
        model = ConvergenceModel(alpha=1.0)
        assert model.iteration_multiplier(0.5) == pytest.approx(2.0)

    def test_diverted_credit_partial(self):
        model = ConvergenceModel(alpha=1.0, diverted_credit=0.5)
        # 50% diverted: effective = 0.5 + 0.25 = 0.75
        assert model.iteration_multiplier(0.5, 0.5) == pytest.approx(1 / 0.75)

    def test_time_to_quality(self):
        model = ConvergenceModel(alpha=1.0)
        assert model.time_to_quality(0.01, 1000, 1.0) == pytest.approx(10.0)
        assert model.time_to_quality(0.01, 1000, 0.5) == pytest.approx(20.0)

    def test_validation(self):
        with pytest.raises(SimulationError):
            ConvergenceModel(alpha=-1)
        model = ConvergenceModel()
        with pytest.raises(SimulationError):
            model.iteration_multiplier(1.5)
