"""Golden pin of the planners' decisions at datacenter size.

A 2-step, 1024-device replay of the Policy Maker and the Migrate planner
under ``placement_search="auto"`` (which resolves to the hierarchical
search at this size), with every action applied so the placement evolves
as a live scheduler's would.  ``tests/data/planner_golden.json`` holds the
actions of each round and the final modelled step time; the replay must
reproduce the actions exactly and the step time to ``rel=1e-12``.

Regenerate (only when a change is *meant* to move decisions) with::

    PYTHONPATH=src python tests/test_planner_golden.py
"""

import json
from pathlib import Path

import pytest

from repro.bench.harness import cluster_for
from repro.cluster.profiler import Profiler
from repro.cluster.topology import ClusterTopology
from repro.config import MoEModelConfig, WorkloadConfig, auto_slots_per_gpu
from repro.core.cost_model import MoECostModel
from repro.core.delta import DeltaStepCost
from repro.core.migration import MigrationPlanner
from repro.core.placement import Placement
from repro.core.policy import PolicyMaker
from repro.workload.synthetic import DriftingRoutingGenerator

GOLDEN_PATH = Path(__file__).parent / "data" / "planner_golden.json"

NUM_GPUS = 1024
NUM_EXPERTS = 512
NUM_STEPS = 2
SEED = 7


def _action_record(action) -> list:
    return [type(action).__name__, *(int(v) for v in vars(action).values())]


def replay() -> dict[str, object]:
    """Run the pinned replay; returns its JSON-ready record."""
    model = MoEModelConfig(
        name="planner-golden",
        num_layers=4,
        d_model=2048,
        d_ffn=8192,
        num_experts=NUM_EXPERTS,
    )
    topology = ClusterTopology(cluster_for(NUM_GPUS))
    profile = Profiler(topology, noise=0.02, seed=SEED).profile(model)
    cost_model = MoECostModel(profile, model)
    trace = DriftingRoutingGenerator(
        NUM_EXPERTS,
        NUM_GPUS,
        WorkloadConfig(
            tokens_per_step=32_768 * NUM_GPUS,
            num_steps=NUM_STEPS,
            skew=1.3,
            seed=SEED,
        ),
    ).generate()
    policy = PolicyMaker(
        cost_model, use_delta=True, topology=topology, placement_search="auto"
    )
    migration = MigrationPlanner(
        cost_model,
        topology,
        use_delta=True,
        memo=policy.memo,
        placement_search="auto",
        delta=policy.delta,
    )
    placement = Placement.balanced(
        NUM_EXPERTS, NUM_GPUS, auto_slots_per_gpu(NUM_EXPERTS, NUM_GPUS)
    )
    rounds = []
    for step in range(NUM_STEPS):
        assignment = trace.step(step)
        actions = policy.make_plan(assignment, placement).actions
        for action in actions:
            action.apply(placement)
        moves = migration.plan(assignment, placement)
        for move in moves:
            move.apply(placement)
        rounds.append(
            {
                "policy": [_action_record(a) for a in actions],
                "migrate": [_action_record(m) for m in moves],
            }
        )
    final = DeltaStepCost(cost_model).rebase(
        trace.step(NUM_STEPS - 1), placement
    )
    return {
        "num_gpus": NUM_GPUS,
        "num_experts": NUM_EXPERTS,
        "seed": SEED,
        "rounds": rounds,
        "final_step_time": float(final),
        "fallbacks": int(policy.delta.fallbacks),
    }


def test_planner_replay_matches_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    observed = replay()
    assert observed["rounds"] == golden["rounds"]
    assert sum(
        len(r["policy"]) + len(r["migrate"]) for r in golden["rounds"]
    ) > 0, "the pinned replay must exercise at least one action"
    assert observed["final_step_time"] == pytest.approx(
        golden["final_step_time"], rel=1e-12
    )
    assert observed["fallbacks"] == golden["fallbacks"] == 0


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(replay(), indent=1) + "\n")
