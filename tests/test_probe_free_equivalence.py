"""Planner decisions on an inference-shaped (probe-free) cost model.

An inference-shaped :class:`~repro.core.cost_model.MoECostModel` has no
gradient sync, so the delta evaluator never probes an AllReduce group:
its candidate batches finish in one pass, and the Policy Maker skips
pricing expand sources on waves that cannot win.  None of that may move
a decision.  The delta planners must propose exactly what the
copy-per-candidate reference oracle proposes on seeded evolving
scenarios:

* at 16 devices with the flat search, against ``use_delta=False``;
* at 128 devices with the hierarchical search and its proxy prune,
  against the reference oracle run stage by stage: the same candidate
  sets and search order, each candidate priced by a full recompute.
"""

import numpy as np
import pytest

from repro.cluster.profiler import Profiler
from repro.cluster.topology import ClusterTopology
from repro.config import (
    HIERARCHICAL_ESCALATION_MARGIN,
    HIERARCHICAL_SCORE_TOP_K,
    ClusterConfig,
    MoEModelConfig,
    SchedulerConfig,
    WorkloadConfig,
    auto_slots_per_gpu,
)
from repro.core.cost_model import MoECostModel
from repro.core.delta import HolderIndex
from repro.core.migration import MigrationPlanner
from repro.core.placement import Placement
from repro.core.policy import PolicyDecision, PolicyMaker
from repro.core.primitives import Expand, Migrate, Shrink
from repro.core.scheduler import Scheduler
from repro.workload.synthetic import DriftingRoutingGenerator


def inference_setup(num_nodes: int, gpus_per_node: int, num_experts: int):
    topology = ClusterTopology(
        ClusterConfig(num_nodes=num_nodes, gpus_per_node=gpus_per_node)
    )
    model = MoEModelConfig(
        f"probe-free-{topology.num_gpus}g", num_layers=4, d_model=512,
        d_ffn=2048, num_experts=num_experts,
    )
    profile = Profiler(topology, noise=0.02, seed=0).profile(model)
    cost_model = MoECostModel(profile, model, inference=True)
    assert cost_model.sync_bytes == 0
    return cost_model, topology


def drifting_trace(num_experts: int, num_gpus: int, num_steps: int, seed: int):
    return DriftingRoutingGenerator(
        num_experts,
        num_gpus,
        WorkloadConfig(
            tokens_per_step=4096 * num_gpus, num_steps=num_steps, skew=1.3,
            seed=seed,
        ),
    ).generate()


# ----------------------------------------------------------------------
# 16 devices, flat search: delta vs use_delta=False
# ----------------------------------------------------------------------
def test_policy_decisions_identical_at_16_gpus():
    cost_model, _ = inference_setup(2, 8, 32)
    trace = drifting_trace(32, 16, num_steps=25, seed=0)
    delta_policy = PolicyMaker(cost_model, use_delta=True)
    ref_policy = PolicyMaker(cost_model, use_delta=False)
    p_delta = Placement.balanced(32, 16, auto_slots_per_gpu(32, 16))
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
    assert 0 < proposals < trace.num_steps  # both outcomes exercised
    assert delta_policy.delta.fallbacks == 0


def test_migration_plans_identical_at_16_gpus():
    cost_model, topology = inference_setup(2, 8, 32)
    trace = drifting_trace(32, 16, num_steps=25, seed=3)
    delta_planner = MigrationPlanner(cost_model, topology, use_delta=True)
    ref_planner = MigrationPlanner(cost_model, topology, use_delta=False)
    placement = Placement.balanced(32, 16, auto_slots_per_gpu(32, 16))
    moves_seen = 0
    for step in range(trace.num_steps):
        assignment = trace.step(step)
        d_moves = delta_planner.plan(assignment, placement)
        assert d_moves == ref_planner.plan(assignment, placement), (
            f"diverged at step {step}"
        )
        for move in d_moves:
            move.apply(placement)
        moves_seen += len(d_moves)
    assert moves_seen > 0
    assert delta_planner.delta.fallbacks == 0


def test_scheduler_histories_identical_at_16_gpus():
    """Algorithm 1 end to end, and a round that applied nothing reports
    its metric unchanged."""
    cost_model, topology = inference_setup(2, 8, 32)
    trace = drifting_trace(32, 16, num_steps=25, seed=0)
    schedulers, placements = {}, {}
    for name, use_delta in (("delta", True), ("reference", False)):
        placement = placements[name] = Placement.balanced(32, 16, auto_slots_per_gpu(32, 16))
        policy = PolicyMaker(cost_model, use_delta=use_delta)
        schedulers[name] = Scheduler(
            placement, policy, SchedulerConfig(), topology
        )
    idle_rounds = 0
    for step in range(trace.num_steps):
        assignment = trace.step(step)
        out_d = schedulers["delta"].on_step(assignment, step)
        out_r = schedulers["reference"].on_step(assignment, step)
        assert out_d.actions == out_r.actions, f"diverged at step {step}"
        assert out_d.triggered == out_r.triggered
        assert out_d.rounds == out_r.rounds
        assert out_d.metric_after == schedulers["delta"].current_metric(
            assignment
        )
        if out_d.triggered and not out_d.actions:
            assert out_d.metric_after == out_d.metric_before
            idle_rounds += 1
    assert any(o.actions for o in schedulers["delta"].history)
    assert idle_rounds > 0
    assert (
        placements["delta"].signature()
        == placements["reference"].signature()
    )


# ----------------------------------------------------------------------
# 128 devices, hierarchical search with the proxy prune
# ----------------------------------------------------------------------
def reference_hierarchical_plan(
    ref: PolicyMaker, gpus_per_node: int, assignment, placement
) -> PolicyDecision:
    """Algorithm 2's hierarchical search, one full evaluation per candidate.

    Each (hot expert, shrink partner) pair prices its shrink GPUs on the
    hot expert's nodes first and the cross-node rest only when no
    intra-node candidate beats ``t0``; the round stops at the first hot
    expert with a viable pair.
    """
    t0 = ref.estimate_step_time(assignment, placement)
    replicas = placement.replica_counts().astype(float)
    caps = assignment.sum(axis=1).astype(float) / replicas
    # PolicyMaker's defaults: 3 hot experts, 2 shrink partners (+1 spare
    # for excluding the hot expert), a replication floor of 1.
    hot = np.argsort(-caps, kind="stable")[:3]
    order_asc = np.argsort(caps, kind="stable")
    shrinkable = order_asc[replicas[order_asc] > 1][:3]
    best = None
    for e0 in hot.tolist():
        e0_nodes = {g // gpus_per_node for g in placement.gpus_of(e0)}
        for e1 in ref._partners(shrinkable, e0):
            gpus = placement.gpus_of(e1)
            intra = [g for g in gpus if g // gpus_per_node in e0_nodes]
            cross = [g for g in gpus if g // gpus_per_node not in e0_nodes]
            for stage in (intra, cross):
                found = False
                for gpu in stage:
                    trial = placement.copy()
                    shrink = Shrink(expert=e1, gpu=gpu)
                    shrink.apply(trial)
                    source = ref._expand_source(trial, e0, gpu)
                    expand = Expand(expert=e0, gpu=gpu, source_gpu=source)
                    expand.apply(trial)
                    adjustment = ref.cost_model.adjustment_cost(
                        [shrink, expand]
                    )
                    effective = ref.estimate_step_time(
                        assignment, trial
                    ) + ref._amortized(adjustment)
                    if effective < t0:
                        found = True
                        if best is None or effective < best.time_after:
                            best = PolicyDecision(
                                (shrink, expand), t0, effective, adjustment
                            )
                if found:
                    break
        if best is not None:
            return best
    return PolicyDecision((), t0, t0, 0.0)


def reference_hierarchical_move(
    planner: MigrationPlanner, ref: MigrationPlanner, assignment, placement
) -> Migrate | None:
    """The hierarchical Migrate search, one full evaluation per candidate.

    ``planner`` supplies the search's inputs (sources, destination pools
    and loads, all read off its own rebase); every exchange is listed as
    a :class:`Migrate`, pruned by the load proxy and priced by ``ref``.
    """
    planner.delta.rebase(assignment, placement)
    index = HolderIndex.of(placement.counts_view)
    per_replica = planner._per_replica_loads(assignment, index)
    gpu_loads = planner._weighted_gpu_loads(per_replica, index)
    sources = planner._candidate_sources(
        per_replica, placement, gpu_loads, index
    )
    baseline = ref.step_time(assignment, placement)
    per_node = planner._gpus_per_node

    def exchanges(pools):
        return [
            Migrate(expert_a=expert, gpu_a=src, expert_b=partner, gpu_b=dst)
            for (expert, src), pool in zip(sources, pools)
            for dst in pool
            if dst != src
            for partner in placement.experts_on(dst)
            if partner != expert
        ]

    def prune(actions):
        if len(actions) <= HIERARCHICAL_SCORE_TOP_K:
            return actions
        groups: dict[tuple[int, int, int], list[Migrate]] = {}
        for action in actions:
            key = (action.expert_a, action.gpu_a, action.gpu_b)
            groups.setdefault(key, []).append(action)
        ranked = sorted(
            groups,
            key=lambda k: max(
                gpu_loads[k[1]] - per_replica[k[0]],
                gpu_loads[k[2]] + per_replica[k[0]],
            ),
        )
        kept, budget = set(), 0
        for expert, src, dst in ranked:
            on_node = placement.counts_view[expert].reshape(-1, per_node)
            shrinks = (
                on_node[dst // per_node].sum() == 0,
                on_node[src // per_node].sum() == 1,
            )
            if budget >= HIERARCHICAL_SCORE_TOP_K and not (
                int(shrinks[0]) - int(shrinks[1]) < 0
            ):
                continue
            kept.add((expert, src, dst))
            budget += len(groups[(expert, src, dst)])
        return [
            a for a in actions if (a.expert_a, a.gpu_a, a.gpu_b) in kept
        ]

    def score(actions, bar):
        best, best_time = None, bar
        for action in actions:
            time = ref._evaluate_exchange(assignment, placement, action)
            if time is not None and time < best_time - 1e-12:
                best, best_time = action, time
        return best, best_time

    intra, intra_time = score(
        prune(
            exchanges(
                planner._node_targets(placement, gpu_loads, expert, src)
                for expert, src in sources
            )
        ),
        baseline,
    )
    if intra is not None and (
        baseline - intra_time >= HIERARCHICAL_ESCALATION_MARGIN * baseline
    ):
        return intra
    targets = planner._candidate_targets(gpu_loads)
    best, _ = score(
        prune(exchanges(targets for _ in sources)), intra_time
    )
    return best if best is not None else intra


def test_hierarchical_decisions_match_the_reference_at_128_gpus():
    gpus_per_node, num_experts = 8, 128
    cost_model, topology = inference_setup(16, gpus_per_node, num_experts)
    num_gpus = topology.num_gpus
    trace = drifting_trace(num_experts, num_gpus, num_steps=4, seed=5)
    policy = PolicyMaker(
        cost_model, topology=topology, placement_search="hierarchical"
    )
    planner = MigrationPlanner(
        cost_model, topology, placement_search="hierarchical",
        delta=policy.delta,
    )
    assert policy._hierarchical and planner._proxy_prune
    ref_policy = PolicyMaker(cost_model, use_delta=False)
    ref_planner = MigrationPlanner(cost_model, topology, use_delta=False)
    placement = Placement.balanced(
        num_experts, num_gpus, auto_slots_per_gpu(num_experts, num_gpus)
    )
    proposals = moves_seen = 0
    for step in range(trace.num_steps):
        assignment = trace.step(step)
        expected = reference_hierarchical_plan(
            ref_policy, gpus_per_node, assignment, placement
        )
        decision = policy.make_plan(assignment, placement)
        assert decision.actions == expected.actions, f"policy, step {step}"
        for action in decision.actions:
            action.apply(placement)
        proposals += bool(decision.actions)
        # Migrate's passes, move by move on the evolving placement.
        for _ in range(2):
            expected = reference_hierarchical_move(
                planner, ref_planner, assignment, placement
            )
            moves = planner.plan(assignment, placement)
            assert moves[:1] == ([expected] if expected else []), (
                f"migrate, step {step}"
            )
            if not moves:
                break
            moves[0].apply(placement)
            moves_seen += 1
    assert proposals > 0 and moves_seen > 0
    assert policy.delta.fallbacks == 0
