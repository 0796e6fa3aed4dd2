"""Scheduling decisions are identical on the delta and reference paths.

The delta-cost search is a pure performance optimization: given the same
seeded scenario, the Policy Maker and Migrate planner must propose exactly
the same actions whether they evaluate candidates incrementally or through
the full-recompute reference evaluator. Asserted here on evolving
single-layer scenarios, the multi-layer pipelined engine and the elastic
faults scenario (failures and stragglers mid-run), following the
``ReferenceTokenRouter`` precedent of keeping the seed implementation as
the executable specification. The engines have no reference mode: the
engine-level tests build their reference side by patching the engine's
``PolicyMaker`` to ``use_delta=False``, and every Scheduler derives its
Migrate path from that policy.
"""

import numpy as np
import pytest

from repro.bench.harness import faults_run
from repro.cluster.profiler import Profiler
from repro.cluster.topology import ClusterTopology
from repro.config import (
    ClusterConfig,
    FaultConfig,
    MoEModelConfig,
    SchedulerConfig,
    WorkloadConfig,
    auto_slots_per_gpu,
)
from repro.core.cost_model import MoECostModel
from repro.core.migration import MigrationPlanner
from repro.core.placement import Placement
from repro.core.policy import PolicyMaker
from repro.core.scheduler import Scheduler
from repro.runtime import pipeline
from repro.runtime.pipeline import build_engine
from repro.training.loop import simulate_pipeline
from repro.workload.synthetic import (
    DriftingRoutingGenerator,
    make_multilayer_trace,
)

MODEL = MoEModelConfig("eq", num_layers=4, d_model=512, d_ffn=2048, num_experts=16)
CLUSTER = ClusterConfig(num_nodes=2, gpus_per_node=4)


def build_cost_model(noise: float = 0.02) -> tuple[MoECostModel, ClusterTopology]:
    topology = ClusterTopology(CLUSTER)
    profile = Profiler(topology, noise=noise, seed=0).profile(MODEL)
    return MoECostModel(profile, MODEL), topology


def reference_planners(monkeypatch) -> list[PolicyMaker]:
    """Make every engine built from now on run the full-recompute
    reference planners; returns the Policy Makers as they are built."""
    built = []

    def reference_policy_maker(*args, **kwargs):
        policy = PolicyMaker(*args, use_delta=False, **kwargs)
        built.append(policy)
        return policy

    monkeypatch.setattr(pipeline, "PolicyMaker", reference_policy_maker)
    return built


def drifting_trace(num_steps: int = 25, seed: int = 0):
    return DriftingRoutingGenerator(
        16,
        8,
        WorkloadConfig(
            tokens_per_step=16_384 * 8, num_steps=num_steps, skew=1.3,
            seed=seed,
        ),
    ).generate()


@pytest.mark.parametrize("noise", [0.0, 0.02])
def test_policy_decisions_identical_on_evolving_scenario(noise):
    """Single layer: make_plan agrees step by step as the placement evolves."""
    cost_model, _ = build_cost_model(noise)
    trace = drifting_trace()
    delta_policy = PolicyMaker(cost_model, use_delta=True)
    ref_policy = PolicyMaker(cost_model, use_delta=False)
    p_delta = Placement.balanced(16, 8, auto_slots_per_gpu(16, 8))
    p_ref = p_delta.copy()
    proposals = 0
    for step in range(trace.num_steps):
        assignment = trace.step(step)
        d = delta_policy.make_plan(assignment, p_delta)
        r = ref_policy.make_plan(assignment, p_ref)
        assert d.actions == r.actions, f"diverged at step {step}"
        assert d.adjustment_time == pytest.approx(r.adjustment_time)
        for action in d.actions:
            action.apply(p_delta)
            action.apply(p_ref)
        proposals += bool(d.actions)
    assert proposals > 0  # the scenario actually exercised the search
    assert delta_policy.delta.fallbacks == 0


def test_policy_probe_order_identical_on_separate_noisy_profiles():
    """Each path draws its own noise: same decisions, same probe order.

    With one shared profile a path that probed AllReduce groups in
    another order would still read the values the other path measured;
    with two identically seeded profiles every group's value depends on
    when its own path first probed it, so any drift in the probe order
    shows up as a different probe sequence (and, eventually, different
    prices).  Most rounds of this drifting trace find no beneficial pair,
    so they search the 2nd and 3rd hot experts too.
    """
    delta_model, _ = build_cost_model(noise=0.02)
    ref_model, _ = build_cost_model(noise=0.02)
    trace = drifting_trace()
    delta_policy = PolicyMaker(delta_model, use_delta=True)
    ref_policy = PolicyMaker(ref_model, use_delta=False)
    p_delta = Placement.balanced(16, 8, auto_slots_per_gpu(16, 8))
    p_ref = p_delta.copy()
    proposals = 0
    for step in range(trace.num_steps):
        assignment = trace.step(step)
        d = delta_policy.make_plan(assignment, p_delta)
        r = ref_policy.make_plan(assignment, p_ref)
        assert d.actions == r.actions, f"diverged at step {step}"
        assert list(delta_model.profile._bps_cache) == list(
            ref_model.profile._bps_cache
        ), f"probe order diverged at step {step}"
        for action in d.actions:
            action.apply(p_delta)
            action.apply(p_ref)
        proposals += bool(d.actions)
    assert 0 < proposals < trace.num_steps // 2
    assert delta_policy.delta.fallbacks == 0


def test_migration_plans_identical_on_evolving_scenario():
    cost_model, topology = build_cost_model()
    trace = drifting_trace(seed=3)
    delta_planner = MigrationPlanner(cost_model, topology, use_delta=True)
    ref_planner = MigrationPlanner(cost_model, topology, use_delta=False)
    placement = Placement.balanced(16, 8, auto_slots_per_gpu(16, 8))
    moves_seen = 0
    for step in range(trace.num_steps):
        assignment = trace.step(step)
        d_moves = delta_planner.plan(assignment, placement)
        r_moves = ref_planner.plan(assignment, placement)
        assert d_moves == r_moves, f"diverged at step {step}"
        for move in d_moves:
            move.apply(placement)
        moves_seen += len(d_moves)
    assert moves_seen > 0
    assert delta_planner.delta.fallbacks == 0


def test_perf_smoke_replay_identical_at_seed_3():
    """The `repro perf --smoke` planner replay at seed 3. At step 1 a
    free same-GPU swap prices one ulp below ``t0`` on the reference
    path and exactly at ``t0`` on the delta path; the minimum relative
    gain keeps that rounding noise from deciding."""
    from repro.bench.perf import _planner_pass, planner_setup

    model = MoEModelConfig(
        name="perf-32e", num_layers=2, d_model=2048, d_ffn=8192,
        num_experts=32,
    )
    topology, cost_model, trace = planner_setup(model, 8, 12, 32_768, 3)
    _, ref, _, _ = _planner_pass(cost_model, topology, trace, use_delta=False)
    _, delta, policy, migration = _planner_pass(
        cost_model, topology, trace, use_delta=True
    )
    assert delta == ref
    assert policy.delta.fallbacks + migration.delta.fallbacks == 0


def test_scheduler_histories_identical():
    """Algorithm 1 end to end: same triggers, same rounds, same actions."""
    cost_model, topology = build_cost_model()
    trace = drifting_trace()
    schedulers, placements = {}, {}
    for name, use_delta in (("delta", True), ("reference", False)):
        placement = placements[name] = Placement.balanced(16, 8, auto_slots_per_gpu(16, 8))
        policy = PolicyMaker(cost_model, use_delta=use_delta)
        schedulers[name] = Scheduler(
            placement, policy, SchedulerConfig(), topology
        )
    for step in range(trace.num_steps):
        assignment = trace.step(step)
        out_d = schedulers["delta"].on_step(assignment, step)
        out_r = schedulers["reference"].on_step(assignment, step)
        assert out_d.actions == out_r.actions, f"diverged at step {step}"
        assert out_d.triggered == out_r.triggered
        assert out_d.rounds == out_r.rounds
    assert any(o.actions for o in schedulers["delta"].history)
    assert (
        placements["delta"].signature()
        == placements["reference"].signature()
    )


def test_multilayer_engine_runs_identical(monkeypatch):
    """The pipelined engine produces identical placements and timings."""
    model = MoEModelConfig(
        "eq-pipe", num_layers=4, d_model=512, d_ffn=2048, num_experts=16
    )
    trace = make_multilayer_trace(
        2, 16, 8,
        WorkloadConfig(tokens_per_step=16_384 * 8, num_steps=15, seed=0),
    )
    results = {}
    signatures = {}
    for use_delta in (True, False):
        if not use_delta:
            built = reference_planners(monkeypatch)
        engine = build_engine(
            ClusterConfig(num_nodes=1, gpus_per_node=8),
            model,
            num_moe_layers=2,
            seed=0,
        )
        results[use_delta] = simulate_pipeline(engine, trace, warmup=2)
        signatures[use_delta] = engine.placement_signatures()
        if use_delta:
            assert engine.delta_fallbacks() == 0
    assert len(built) == 2
    assert all(
        layer.scheduler.migration.delta is None for layer in engine.layers
    )
    assert signatures[True] == signatures[False]
    assert np.array_equal(
        results[True].step_times, results[False].step_times
    )
    actions = [
        sum(r.scheduling_actions for r in results[flag].results)
        for flag in (True, False)
    ]
    assert actions[0] == actions[1] > 0


def test_faults_scenario_runs_identical(monkeypatch):
    """Elastic runs with failures and stragglers mid-search agree too."""
    faults = FaultConfig(
        num_failures=1,
        failure_step=6,
        recovery_steps=8,
        num_stragglers=1,
        straggler_factor=0.5,
        straggler_step=3,
        seed=0,
    )
    summaries = {}
    for use_delta in (True, False):
        if not use_delta:
            built = reference_planners(monkeypatch)
        result = faults_run(
            num_moe_layers=2,
            num_gpus=8,
            num_experts=16,
            num_steps=25,
            warmup=3,
            faults=faults,
            seed=0,
        )
        summaries[use_delta] = result.summary()
        assert result.flexmoe_rehomed
        if use_delta:
            # Elasticity events apply before the schedulers run, so even
            # the faults scenario must never stale the delta base.
            assert result.delta_fallbacks == 0
    # FlexMoE and Static, two layers each.
    assert len(built) == 4
    assert summaries[True]["flexmoe_actions"] == summaries[False][
        "flexmoe_actions"
    ] > 0
    assert summaries[True]["flexmoe"]["final"] == pytest.approx(
        summaries[False]["flexmoe"]["final"], rel=1e-12
    )
    assert summaries[True]["baseline"]["final"] == pytest.approx(
        summaries[False]["baseline"]["final"], rel=1e-12
    )
