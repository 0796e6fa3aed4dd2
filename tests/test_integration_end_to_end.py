"""Integration tests: full pipelines across modules."""

import numpy as np
import pytest

from repro.baselines import (
    ExpertParallelSystem,
    FasterMoESystem,
    FlexMoESystem,
    SwipeSystem,
    build_context,
)
from repro.config import (
    ClusterConfig,
    MoEModelConfig,
    SchedulerConfig,
    WorkloadConfig,
)
from repro.core.flow_control import GateFlowController
from repro.training.convergence import ConvergenceModel
from repro.training.loop import compare_systems
from repro.training.quality import train_classifier
from repro.workload.datasets import ClusterClassificationDataset


@pytest.fixture(scope="module")
def comparison():
    model = MoEModelConfig("e2e", 4, 512, 2048, 16)
    cluster = ClusterConfig(num_nodes=2, gpus_per_node=4)
    workload = WorkloadConfig(tokens_per_step=524_288, num_steps=18, seed=4)
    return compare_systems(
        model,
        cluster,
        workload,
        systems=[
            ExpertParallelSystem,
            SwipeSystem,
            FasterMoESystem,
            FlexMoESystem,
        ],
        warmup=6,
    )


class TestSystemShapeClaims:
    """The paper's qualitative claims must hold on a small workload."""

    def test_deepspeed_has_smallest_iteration_time(self, comparison):
        ds = comparison["DeepSpeed"].mean_step_time
        for other in ("FasterMoE", "FlexMoE"):
            assert ds <= comparison[other].mean_step_time

    def test_flexmoe_beats_fastermoe_step_time(self, comparison):
        assert (
            comparison["FlexMoE"].mean_step_time
            < comparison["FasterMoE"].mean_step_time
        )

    def test_flexmoe_wins_time_to_quality(self, comparison):
        """Figure 5's headline: FlexMoE > FasterMoE > DeepSpeed on TTQ."""
        model = ConvergenceModel()
        ttq = {
            name: comparison[name].time_to_quality(10_000, model)
            for name in ("DeepSpeed", "FasterMoE", "FlexMoE")
        }
        assert ttq["FlexMoE"] < ttq["DeepSpeed"]
        assert ttq["FlexMoE"] < ttq["FasterMoE"]

    def test_figure7a_efficiency_quadrants(self, comparison):
        """Token/expert-efficiency placement of each system (Fig 7a)."""
        ds = comparison["DeepSpeed"].trajectory
        swipe = comparison["SWIPE"].trajectory
        faster = comparison["FasterMoE"].trajectory
        flex = comparison["FlexMoE"].trajectory
        # SWIPE: perfect expert efficiency, poor token efficiency.
        assert swipe.expert_efficiency.mean() > 0.99
        assert swipe.token_efficiency.mean() < 1.0
        # FasterMoE / FlexMoE: perfect token efficiency.
        assert faster.token_efficiency.mean() == 1.0
        assert flex.token_efficiency.mean() == 1.0
        # FlexMoE is closest to the ideal corner among non-SWIPE systems.
        assert flex.distance_to_ideal() < ds.distance_to_ideal()
        assert flex.distance_to_ideal() < faster.distance_to_ideal()

    def test_flexmoe_improves_balance_over_run(self, comparison):
        balances = [r.balance for r in comparison["FlexMoE"].results]
        assert balances[-1] < 2.0


class TestFlowControlIntegration:
    def test_flexmoe_with_flow_control_defers_spikes(self):
        model = MoEModelConfig("fc", 4, 256, 1024, 8)
        cluster = ClusterConfig(num_nodes=1, gpus_per_node=4)
        context = build_context(cluster, model, seed=1)
        controller = GateFlowController(watermark_factor=1.5)
        system = FlexMoESystem(context, flow_control=controller)
        rng = np.random.default_rng(0)
        spike = np.full((8, 4), 100, dtype=np.int64)
        spike[0] = 50_000
        total_assigned = 0
        total_processed = 0
        for step in range(10):
            result = system.step(spike, step)
            total_assigned += result.assigned_tokens
            total_processed += result.processed_tokens
        # Deferral, not dropping: backlog accounts for the difference.
        assert total_processed + controller.backlog_tokens == total_assigned


class TestQualityToSimulatorBridge:
    def test_real_training_trace_feeds_simulator(self):
        dataset = ClusterClassificationDataset(
            num_classes=6, num_clusters=6, input_dim=16, seed=0
        )
        result = train_classifier(
            dataset, steps=30, batch_size=64, num_experts=8,
            d_model=16, num_layers=2, eval_every=15, seed=0,
        )
        trace = result.routing_trace(num_gpus=4, seed=0)
        assert trace.num_steps == 30
        assert trace.num_experts == 8
        # Feed the measured trace into a system.
        model = MoEModelConfig("bridge", 2, 256, 1024, 8)
        cluster = ClusterConfig(num_nodes=1, gpus_per_node=4)
        context = build_context(cluster, model, seed=0)
        system = ExpertParallelSystem(context, capacity_factor=None)
        outcome = system.step(trace.step(0), 0)
        assert outcome.step_time > 0


class TestSchedulerAblationModes:
    def test_static_and_variance_modes_run(self):
        model = MoEModelConfig("abl", 4, 256, 1024, 8)
        cluster = ClusterConfig(num_nodes=1, gpus_per_node=4)
        workload = WorkloadConfig(tokens_per_step=131_072, num_steps=8, seed=1)
        for config in (
            SchedulerConfig(mode="static", static_interval=4),
            SchedulerConfig(metric="variance"),
            SchedulerConfig(migrate=False),
            SchedulerConfig(best_effort=False),
        ):
            cmp = compare_systems(
                model, cluster, workload,
                systems=[lambda ctx, c=config: FlexMoESystem(ctx, c)],
            )
            run = cmp["FlexMoE"]
            assert run.mean_token_efficiency == 1.0
