"""Tests for the multi-layer pipelined engine (runtime/pipeline.py)."""

import numpy as np
import pytest

from repro.baselines import FlexMoESystem
from repro.baselines.base import build_context
from repro.bench.serving import multitenant_run
from repro.cluster.events import ClusterEvent, ElasticitySchedule
from repro.config import (
    ClusterConfig,
    MoEModelConfig,
    SchedulerConfig,
    WorkloadConfig,
)
from repro.core.scheduler import Scheduler
from repro.exceptions import SimulationError
from repro.runtime.executor import PipelinedStepExecutor
from repro.runtime.pipeline import (
    LayerPipeline,
    MultiLayerFlexMoEEngine,
    build_engine,
)
from repro.training.loop import simulate_pipeline
from repro.workload.synthetic import make_multilayer_trace

from trace_helpers import make_trace

MODEL = MoEModelConfig("pipe", num_layers=8, d_model=256, d_ffn=1024, num_experts=8)
CLUSTER = ClusterConfig(num_nodes=1, gpus_per_node=4)


def small_engine(**overrides) -> MultiLayerFlexMoEEngine:
    kwargs = dict(cluster=CLUSTER, model=MODEL, seed=0)
    kwargs.update(overrides)
    return build_engine(**kwargs)


def small_trace(num_layers: int, num_steps: int = 8, seed: int = 0):
    return make_multilayer_trace(
        num_layers,
        MODEL.num_experts,
        CLUSTER.num_gpus,
        WorkloadConfig(tokens_per_step=65_536, num_steps=num_steps, seed=seed),
    )


class TestSingleLayerReduction:
    """num_moe_layers=1 without dense modelling is the seed engine."""

    def test_matches_flexmoe_system_exactly(self):
        model = MODEL.replace(num_layers=2)  # one MoE layer
        trace = make_trace(
            MODEL.num_experts,
            CLUSTER.num_gpus,
            WorkloadConfig(tokens_per_step=65_536, num_steps=8, seed=2),
        )

        ctx = build_context(CLUSTER, model, seed=7)
        system = FlexMoESystem(ctx)
        single = [system.step(trace.step(t), t).step_time for t in range(8)]

        ctx2 = build_context(CLUSTER, model, seed=7)
        engine = MultiLayerFlexMoEEngine(
            executor=ctx2.executor,
            profile=ctx2.profile,
            collectives=ctx2.collectives,
            num_moe_layers=1,
            model_dense_compute=False,
        )
        multi = [engine.step(trace.step(t)[None], t).step_time for t in range(8)]
        np.testing.assert_allclose(multi, single, rtol=0, atol=0)

    def test_single_layer_timing_reduces_to_step_executor(self):
        ctx = build_context(CLUSTER, MODEL, seed=1)
        pipe = PipelinedStepExecutor(
            ctx.executor, num_moe_layers=1, model_dense_compute=False
        )
        flow = np.zeros((4, 4), dtype=np.int64)
        flow[0, 0] = 1000
        timing = pipe.execute([flow], [_balanced_placement()])
        layer = timing.layer_timings[0]
        assert timing.step_time == pytest.approx(layer.step_time)
        assert timing.dense_time == 0.0
        assert timing.hidden_a2a == 0.0


def _balanced_placement():
    from repro.core.placement import Placement

    return Placement.balanced(8, 4, 4)


class TestOverlapModel:
    def test_overlap_never_increases_step_time(self):
        trace = small_trace(4, num_steps=6)
        overlapped = simulate_pipeline(small_engine(), trace)
        sequential = simulate_pipeline(
            small_engine(overlap_efficiency=0.0), trace
        )
        # Same substrate seeds, same trace: overlap only hides A2A.
        assert overlapped.mean_step_time <= sequential.mean_step_time

    def test_hidden_a2a_bounded_by_total(self):
        run = simulate_pipeline(small_engine(), small_trace(4, num_steps=6))
        for result in run.results:
            assert 0.0 <= result.timing.hidden_a2a <= result.timing.a2a_time
            assert result.timing.exposed_a2a >= 0.0

    def test_breakdown_sums_to_step_time(self):
        run = simulate_pipeline(small_engine(), small_trace(4, num_steps=6))
        for result in run.results:
            b = result.timing.breakdown()
            total = (
                b["dense_compute"]
                + b["expert_compute"]
                + b["a2a_exposed"]
                + b["sync"]
                + b["adjustment_blocking"]
            )
            assert b["step_time"] == pytest.approx(total)

    def test_dense_modelling_adds_time(self):
        trace = small_trace(4, num_steps=6)
        with_dense = simulate_pipeline(small_engine(), trace)
        without = simulate_pipeline(
            small_engine(model_dense_compute=False), trace
        )
        assert with_dense.mean_step_time > without.mean_step_time


class TestPerLayerDivergence:
    def test_skewed_layers_diverge(self):
        trace = make_multilayer_trace(
            4,
            MODEL.num_experts,
            CLUSTER.num_gpus,
            WorkloadConfig(
                tokens_per_step=65_536, num_steps=15, skew=1.5, seed=3
            ),
        )
        run = simulate_pipeline(small_engine(), trace)
        # Each layer's hot experts differ, so the schedulers must have
        # walked the placements apart.
        assert run.distinct_final_placements >= 2

    def test_per_layer_loads_reported(self):
        run = simulate_pipeline(small_engine(), small_trace(4, num_steps=4))
        for result in run.results:
            assert result.layer_gpu_loads.shape == (4, CLUSTER.num_gpus)
            assert result.layer_locality.shape == (4,)
            assert np.array_equal(
                result.gpu_loads, result.layer_gpu_loads.sum(axis=0)
            )


class TestEngineSemantics:
    def test_token_efficiency_is_one(self):
        run = simulate_pipeline(small_engine(), small_trace(4, num_steps=4))
        assert run.mean_token_efficiency == 1.0

    def test_placements_stay_valid(self):
        engine = small_engine()
        trace = small_trace(4, num_steps=10, seed=5)
        simulate_pipeline(engine, trace)
        for layer in engine.layers:
            layer.active_placement.validate()
            layer.target_placement.validate()

    def test_best_effort_off_blocks_steps(self):
        config = SchedulerConfig(best_effort=False)
        engine = small_engine(scheduler_config=config)
        trace = make_multilayer_trace(
            4,
            MODEL.num_experts,
            CLUSTER.num_gpus,
            WorkloadConfig(
                tokens_per_step=65_536, num_steps=10, skew=1.5, seed=1
            ),
        )
        run = simulate_pipeline(engine, trace)
        blocking = sum(r.timing.adjustment_blocking for r in run.results)
        actions = sum(r.scheduling_actions for r in run.results)
        assert actions > 0
        assert blocking > 0.0

    def test_layer_count_mismatch_rejected(self):
        engine = small_engine()
        with pytest.raises(SimulationError):
            simulate_pipeline(engine, small_trace(2))

    def test_bad_assignment_shape_rejected(self):
        engine = small_engine()
        with pytest.raises(SimulationError):
            engine.step(np.zeros((2, 8, 4), dtype=np.int64), 0)

    def test_warmup_bounds(self):
        engine = small_engine()
        with pytest.raises(SimulationError):
            simulate_pipeline(engine, small_trace(4, num_steps=4), warmup=4)

    def test_summary_keys(self):
        run = simulate_pipeline(small_engine(), small_trace(4, num_steps=4))
        summary = run.summary()
        for key in (
            "mean_step_time",
            "mean_overlap_savings",
            "mean_dense_compute",
            "mean_a2a_hidden",
            "moe_layers",
        ):
            assert key in summary
        assert summary["moe_layers"] == 4.0


# ----------------------------------------------------------------------
# The scheduler is held while the layer's stream has work in flight
# ----------------------------------------------------------------------
def _skewed_assignment():
    """One hot expert: the default balance trigger fires and plans."""
    assignment = np.full((MODEL.num_experts, CLUSTER.num_gpus), 100)
    assignment[0] = 20_000
    return assignment


def _count_on_step(monkeypatch, scheduler):
    calls = []
    on_step = scheduler.on_step

    def counted(assignment, step):
        calls.append(step)
        return on_step(assignment, step)

    monkeypatch.setattr(scheduler, "on_step", counted)
    return calls


@pytest.fixture
def on_step_audit(monkeypatch):
    """Record, at every ``Scheduler.on_step`` call, whether the calling
    layer's target placement equalled its active one, and how many
    ``begin_step`` calls found the stream busy."""
    audit = {"layer": None, "target_is_active": [], "busy_steps": 0}
    begin_step = LayerPipeline.begin_step
    on_step = Scheduler.on_step

    def tracked_begin_step(self, assignment, step_index):
        audit["layer"] = self
        audit["busy_steps"] += self.pending_actions > 0
        return begin_step(self, assignment, step_index)

    def audited_on_step(self, assignment, step):
        layer = audit["layer"]
        assert layer is not None and layer.scheduler is self
        audit["target_is_active"].append(
            layer.target_placement == layer.active_placement
        )
        return on_step(self, assignment, step)

    monkeypatch.setattr(LayerPipeline, "begin_step", tracked_begin_step)
    monkeypatch.setattr(Scheduler, "on_step", audited_on_step)
    return audit


class TestSchedulerHeldWhileStreamBusy:
    def test_busy_stream_skips_the_scheduling_round(self, monkeypatch):
        layer = small_engine().layers[0]
        calls = _count_on_step(monkeypatch, layer.scheduler)
        assignment = _skewed_assignment()
        _, outcome = layer.begin_step(assignment, 0)
        assert outcome.actions and layer.pending_actions > 0
        for step in (1, 2):
            blocking, held = layer.begin_step(assignment, step)
            assert blocking == 0.0
            assert not held.triggered and held.actions == ()
            assert np.isnan(held.metric_before) and np.isnan(held.metric_after)
        assert calls == [0]
        # Held steps never reached the scheduler, so its history skips them.
        assert len(layer.scheduler.history) == 1
        layer.advance_stream(1e9)
        assert layer.pending_actions == 0
        assert layer.target_placement == layer.active_placement
        layer.begin_step(assignment, 3)
        assert calls == [0, 3]

    def test_without_best_effort_every_step_is_scheduled(self, monkeypatch):
        engine = small_engine(scheduler_config=SchedulerConfig(best_effort=False))
        layer = engine.layers[0]
        calls = _count_on_step(monkeypatch, layer.scheduler)
        assignment = _skewed_assignment()
        emitted = 0
        for step in range(4):
            _, outcome = layer.begin_step(assignment, step)
            emitted += len(outcome.actions)
            assert layer.pending_actions == 0
        assert emitted > 0
        assert calls == [0, 1, 2, 3]

    def test_multitenant_serving_plans_only_on_the_active_placement(
        self, on_step_audit
    ):
        run = multitenant_run(num_gpus=16, num_experts=64, seed=1)
        assert run.flexmoe.placement_actions > 0
        assert on_step_audit["busy_steps"] > 0
        assert on_step_audit["target_is_active"]
        assert all(on_step_audit["target_is_active"])

    def test_elastic_training_plans_only_on_the_active_placement(
        self, on_step_audit
    ):
        # Spare slots and a two-replica floor make the failure re-home.
        config = SchedulerConfig(min_replicas=2, slots_per_gpu=5)
        schedule = ElasticitySchedule([ClusterEvent(step=3, kind="fail", gpu=1)])
        engine = small_engine(scheduler_config=config, elasticity=schedule)
        trace = small_trace(4, num_steps=8, seed=1)
        for step in range(3):
            engine.step(trace.step(step), step)
        before = [layer.pending_actions for layer in engine.layers]
        engine.apply_elasticity(3)
        rehomed = [
            layer.pending_actions - count
            for layer, count in zip(engine.layers, before)
        ]
        assert max(rehomed) > 0  # re-homing Expands now ride the streams
        for step in range(3, 8):
            engine.step(trace.step(step), step)
        assert on_step_audit["busy_steps"] > 0
        assert on_step_audit["target_is_active"]
        assert all(on_step_audit["target_is_active"])
