"""One stacked pass per step: routing and execution of every MoE layer.

:meth:`FlexibleTokenRouter.route_layers` stacks layers along the expert
axis and returns their flows, and :meth:`StepExecutor.execute_layers`
stacks those flows; both must reproduce the one-layer calls exactly --
flows, timings and the jitter stream -- whether the layers fit one
stack, cross the stack's cell bound or take the spill scatter's
expert-batch path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.groups import CommunicatorGroupCache
from repro.cluster.topology import ClusterTopology
from repro.config import (
    ClusterConfig,
    MoEModelConfig,
    SchedulerConfig,
    WorkloadConfig,
)
from repro.core import router as router_module
from repro.core.placement import Placement
from repro.core.router import (
    FlexibleTokenRouter,
    ReferenceTokenRouter,
    validate_conservation,
)
from repro.exceptions import RoutingError, SimulationError
from repro.runtime import executor as executor_module
from repro.runtime.executor import StepExecutor
from repro.runtime.pipeline import build_engine
from repro.workload.synthetic import make_multilayer_trace

EXPERTS, GPUS, SLOTS = 12, 8, 4


def random_placement(rng, num_experts=EXPERTS, num_gpus=GPUS, slots=SLOTS):
    """Every expert on one random device, then random extra replicas."""
    counts = np.zeros((num_experts, num_gpus), dtype=np.int64)
    free = np.full(num_gpus, slots)
    for expert in range(num_experts):
        gpu = rng.choice(np.flatnonzero(free))
        counts[expert, gpu] += 1
        free[gpu] -= 1
    for gpu in range(num_gpus):
        for _ in range(rng.integers(0, free[gpu] + 1)):
            counts[rng.integers(num_experts), gpu] += 1
    return Placement(counts, slots)


def random_layers(num_layers, seed=0):
    """Skewed, partly idle assignments over per-layer random placements."""
    rng = np.random.default_rng(seed)
    placements = [random_placement(rng) for _ in range(num_layers)]
    skew = rng.zipf(1.5, size=(num_layers, EXPERTS, 1)).clip(max=30)
    assignments = rng.integers(0, 300, (num_layers, EXPERTS, GPUS)) * skew
    assignments *= rng.random((num_layers, EXPERTS, GPUS)) < 0.8
    return assignments, placements


def assert_plans_equal(stacked, single):
    for name in ("local", "capacities", "flow"):
        got, want = getattr(stacked, name), getattr(single, name)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    for got, want in zip(stacked.spill, single.spill):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


@pytest.fixture
def stacks(monkeypatch):
    """Count the stacks each ``route_layers`` call routes."""
    sizes = []
    inner = FlexibleTokenRouter._route_stack

    def counted(demand, counts, flows):
        sizes.append(len(flows))
        return inner(demand, counts, flows)

    monkeypatch.setattr(FlexibleTokenRouter, "_route_stack", staticmethod(counted))
    return sizes


def single_flows(router, assignments, placements):
    """``np.stack`` of the one-layer routes' flows: the stacked oracle."""
    return np.stack(
        [router.route(a, p).flow for a, p in zip(assignments, placements)]
    )


def assert_flows_equal(got, want):
    assert got.dtype == want.dtype == np.int64
    np.testing.assert_array_equal(got, want)


class TestRouteLayers:
    @pytest.mark.parametrize("num_layers", [1, 2, 5])
    def test_equals_per_layer_route(self, num_layers, stacks):
        assignments, placements = random_layers(num_layers, seed=num_layers)
        router = FlexibleTokenRouter()
        flows = router.route_layers(assignments, placements)
        assert stacks == [num_layers]
        assert flows.shape == (num_layers, GPUS, GPUS)
        assert_flows_equal(flows, single_flows(router, assignments, placements))
        spilled = 0
        for assignment, placement in zip(assignments, placements):
            plan = router.route(assignment, placement)
            validate_conservation(assignment, plan)
            spilled += plan.spill.tokens.size
        assert spilled > 0

    def test_stack_crossing_the_cell_bound(self, monkeypatch, stacks):
        assignments, placements = random_layers(5, seed=3)
        router = FlexibleTokenRouter()
        want = single_flows(router, assignments, placements)
        # Two layers' blocks per stack: 5 layers route as 2 + 2 + 1.
        monkeypatch.setattr(
            router_module, "SPILL_CHUNK_CELLS", 2 * EXPERTS * GPUS * GPUS
        )
        stacks.clear()
        flows = router.route_layers(assignments, placements)
        assert stacks == [2, 2, 1]
        assert_flows_equal(flows, want)

    def test_spill_chunk_path(self, monkeypatch, stacks):
        assignments, placements = random_layers(3, seed=4)
        router = FlexibleTokenRouter()
        singles = [router.route(a, p) for a, p in zip(assignments, placements)]
        # Below one layer's cells: every layer routes alone and its spill
        # is scattered one expert batch at a time, by both calls.
        monkeypatch.setattr(router_module, "SPILL_CHUNK_CELLS", 1)
        stacks.clear()
        flows = router.route_layers(assignments, placements)
        assert stacks == [1, 1, 1]
        assert_flows_equal(flows, np.stack([plan.flow for plan in singles]))
        for assignment, placement, single in zip(
            assignments, placements, singles
        ):
            assert_plans_equal(router.route(assignment, placement), single)

    def test_sequence_of_matrices(self):
        assignments, placements = random_layers(2, seed=5)
        router = FlexibleTokenRouter()
        assert_flows_equal(
            router.route_layers(list(assignments), placements),
            router.route_layers(assignments, placements),
        )

    @pytest.mark.parametrize("bad", ["negative", "fractional", "nan", "shape"])
    def test_one_bad_layer_raises(self, bad):
        assignments, placements = random_layers(3, seed=6)
        layers = [a.astype(float) for a in assignments]
        if bad == "negative":
            layers[1][2, 3] = -1
        elif bad == "fractional":
            layers[1][2, 3] = 10.7
        elif bad == "nan":
            layers[1][2, 3] = np.nan
        else:
            layers[1] = layers[1][:, :-1]
        with pytest.raises(RoutingError):
            FlexibleTokenRouter().route_layers(layers, placements)

    def test_mismatched_placements_raise(self):
        assignments, placements = random_layers(2, seed=7)
        rng = np.random.default_rng(7)
        other = random_placement(rng, num_experts=EXPERTS - 1)
        with pytest.raises(RoutingError, match="share one"):
            FlexibleTokenRouter().route_layers(
                assignments, [placements[0], other]
            )
        with pytest.raises(RoutingError, match="3 placements"):
            FlexibleTokenRouter().route_layers(
                assignments, [*placements, placements[0]]
            )
        with pytest.raises(RoutingError, match="no layers"):
            FlexibleTokenRouter().route_layers([], [])


class TestIntegralCounts:
    def test_fractional_counts_raise(self):
        placement = Placement.balanced(2, 2, 1)
        assignment = np.array([[10.7, 0.0], [0.0, 0.0]])
        for router in (FlexibleTokenRouter(), ReferenceTokenRouter()):
            with pytest.raises(RoutingError, match="integers"):
                router.route(assignment, placement)
        # The relaxation is the path for fractional counts.
        plan = FlexibleTokenRouter().route_fractional(assignment, placement)
        assert plan.flow.sum() == pytest.approx(10.7)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint16, np.int64, float])
    def test_integral_counts_route_alike(self, dtype):
        assignments, placements = random_layers(1, seed=8)
        router = FlexibleTokenRouter()
        want = router.route(assignments[0], placements[0])
        got = router.route(assignments[0].astype(dtype), placements[0])
        assert_plans_equal(got, want)

    @pytest.mark.parametrize("num_gpus, num_layers", [(16, 3), (256, 2)])
    def test_int32_trace_steps_route_like_their_int64_copy(
        self, num_gpus, num_layers, monkeypatch
    ):
        """A trace step's int32 counts route without an int64 copy of
        them into plans identical to the int64 copy's -- dtypes too."""
        experts = 32
        trace = make_multilayer_trace(
            num_layers, experts, num_gpus,
            WorkloadConfig(
                tokens_per_step=512 * num_gpus, num_steps=2, skew=1.3, seed=6
            ),
        )
        step = trace.step(1)
        assert step.dtype == np.int32
        rng = np.random.default_rng(num_gpus)
        placements = [
            random_placement(rng, experts, num_gpus, slots=4)
            for _ in range(num_layers)
        ]
        router = FlexibleTokenRouter()
        want = router.route_layers(step.astype(np.int64), placements)
        demands = []
        inner = FlexibleTokenRouter._route_stack

        def seen(demand, counts, flows):
            demands.append(demand.dtype)
            return inner(demand, counts, flows)

        monkeypatch.setattr(FlexibleTokenRouter, "_route_stack", staticmethod(seen))
        got = router.route_layers(step, placements)
        assert set(demands) == {np.dtype(np.int32)}
        assert_flows_equal(got, want)
        for assignment, placement in zip(step, placements):
            got_plan = router.route(assignment, placement)
            assert got_plan.local.dtype == np.int64
            assert got_plan.spill.tokens.dtype == np.int64
            assert_plans_equal(
                got_plan, router.route(assignment.astype(np.int64), placement)
            )


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------
def twin_executors(inference: bool):
    topology = ClusterTopology(ClusterConfig(num_nodes=2, gpus_per_node=4))
    model = MoEModelConfig("twin", num_layers=4, d_model=256, d_ffn=1024,
                           num_experts=EXPERTS)
    return [
        StepExecutor(
            topology, model, jitter=0.05, seed=11,
            group_cache=CommunicatorGroupCache(capacity=4),
            inference=inference,
        )
        for _ in range(2)
    ]


def layer_flows(num_layers, seed=0):
    assignments, placements = random_layers(num_layers, seed=seed)
    flows = FlexibleTokenRouter().route_layers(assignments, placements)
    return list(flows), placements


def assert_timings_equal(got, want):
    assert got.a2a_time == want.a2a_time
    assert got.compute_time == want.compute_time
    assert got.sync_time == want.sync_time
    assert got.adjustment_blocking == want.adjustment_blocking
    np.testing.assert_array_equal(got.per_gpu_compute, want.per_gpu_compute)


class TestExecuteLayers:
    @pytest.mark.parametrize("inference", [False, True])
    def test_equals_sequential_execute(self, inference):
        stacked, sequential = twin_executors(inference)
        flows, placements = layer_flows(4, seed=9)
        timings = stacked.execute_layers(np.stack(flows), placements)
        assert len(timings) == 4
        for flow, placement, timing in zip(flows, placements, timings):
            assert_timings_equal(timing, sequential.execute(flow, placement))
            # Training layers run their replica AllReduce, whose draws
            # sit between the layers' jitter draws.
            assert (timing.sync_time > 0) != inference
        # Both jitter streams end in the same state.
        assert_timings_equal(
            stacked.execute(flows[0], placements[0]),
            sequential.execute(flows[0], placements[0]),
        )

    def test_stack_crossing_the_cell_bound(self, monkeypatch):
        stacked, sequential = twin_executors(inference=False)
        flows, placements = layer_flows(5, seed=10)
        monkeypatch.setattr(executor_module, "SPILL_CHUNK_CELLS", 2 * GPUS * GPUS)
        timings = stacked.execute_layers(flows, placements)
        for flow, placement, timing in zip(flows, placements, timings):
            assert_timings_equal(timing, sequential.execute(flow, placement))

    def test_bad_layer_or_count_raises(self):
        executor, _ = twin_executors(inference=False)
        flows, placements = layer_flows(3, seed=12)
        bad = [flow.astype(float) for flow in flows]
        bad[2][0, 1] = -1.0
        with pytest.raises(SimulationError, match="finite and >= 0"):
            executor.execute_layers(bad, placements)
        with pytest.raises(SimulationError, match="must be"):
            executor.execute_layers([*flows[:2], flows[2][:, :-1]], placements)
        with pytest.raises(SimulationError, match="2 flows for 3"):
            executor.execute_layers(flows[:2], placements)


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
def test_engine_routes_and_reports_every_layer_at_once():
    model = MoEModelConfig("eng", num_layers=6, d_model=256, d_ffn=1024,
                           num_experts=EXPERTS)
    engine = build_engine(
        ClusterConfig(num_nodes=2, gpus_per_node=4), model, num_moe_layers=3,
        scheduler_config=SchedulerConfig(), seed=3,
    )
    assignments, _ = random_layers(3, seed=13)
    flows = engine.route(assignments)
    router = FlexibleTokenRouter()
    plans = [
        router.route(assignment, layer.active_placement)
        for layer, assignment in zip(engine.layers, assignments)
    ]
    assert_flows_equal(flows, np.stack([plan.flow for plan in plans]))
    result = engine.step(assignments, 0)
    np.testing.assert_array_equal(
        result.layer_gpu_loads, np.stack([plan.gpu_loads for plan in plans])
    )
    assert result.layer_locality.tolist() == [
        plan.locality_fraction for plan in plans
    ]
    # A layer that routes nothing counts as fully local.
    idle = assignments.copy()
    idle[1] = 0
    assert engine.step(idle, 1).layer_locality[1] == 1.0
