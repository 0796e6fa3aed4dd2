"""Golden pin of the hierarchical Policy Maker's AllReduce probe order.

A noisy training profile draws the value of every AllReduce group it has
not measured yet from one seeded stream, in first-seen order.  So the
*order* in which a Policy Maker round probes new groups decides every
price it produces: two searches that rank the same candidates but probe
them in another order end up with other noise draws and, eventually,
other decisions.

This replay runs the hierarchical search alone on a 128-device, 64-expert
cluster with a 2%-noise profile, applying every proposal so the placement
evolves.  The replay reaches both rare branches of the search: at least
one (Shrink, Expand) pair escalates from its intra-node stage to its
cross-node stage, and at least one round moves past its hottest expert.
``tests/data/policy_probe_golden.json`` holds a digest of the profile's
probe order, the actions of each round and the evaluator's evaluation
count; the replay must reproduce all three exactly.

Regenerate (only when a change is *meant* to move the probe order) with::

    PYTHONPATH=src python tests/test_policy_probe_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.bench.harness import cluster_for
from repro.cluster.profiler import Profiler
from repro.cluster.topology import ClusterTopology
from repro.config import MoEModelConfig, WorkloadConfig, auto_slots_per_gpu
from repro.core.cost_model import MoECostModel
from repro.core.placement import Placement
from repro.core.policy import PolicyMaker
from repro.core.primitives import Migrate
from repro.workload.synthetic import DriftingRoutingGenerator

GOLDEN_PATH = Path(__file__).parent / "data" / "policy_probe_golden.json"

NUM_GPUS = 128
NUM_EXPERTS = 64
NUM_STEPS = 4
PLANS_PER_STEP = 4
EXCHANGES = 256
SEED = 11


def _action_record(action) -> list:
    return [type(action).__name__, *(int(v) for v in vars(action).values())]


def scrambled_placement(rng) -> Placement:
    """Balanced placement after random vExpert exchanges.

    The balanced layout stripes each expert over exactly one node, so no
    shrink expert would straddle the hot expert's nodes; the exchanges
    spread replica groups across nodes.
    """
    placement = Placement.balanced(
        NUM_EXPERTS, NUM_GPUS, auto_slots_per_gpu(NUM_EXPERTS, NUM_GPUS)
    )
    for _ in range(EXCHANGES):
        counts = placement.counts_view
        src, dst = (int(g) for g in rng.choice(NUM_GPUS, 2, replace=False))
        expert = int(rng.choice(np.flatnonzero(counts[:, src])))
        partner = int(rng.choice(np.flatnonzero(counts[:, dst])))
        if expert != partner:
            Migrate(
                expert_a=expert, gpu_a=src, expert_b=partner, gpu_b=dst
            ).apply(placement)
    return placement


def probe_digest(profile) -> str:
    """Digest of the groups a profile has measured, in first-seen order."""
    keys = ";".join(",".join(map(str, key)) for key in profile._bps_cache)
    return hashlib.sha256(keys.encode()).hexdigest()


def replay() -> dict[str, object]:
    """Run the pinned replay; returns its JSON-ready record."""
    model = MoEModelConfig(
        name="probe-golden",
        num_layers=2,
        d_model=1024,
        d_ffn=4096,
        num_experts=NUM_EXPERTS,
    )
    topology = ClusterTopology(cluster_for(NUM_GPUS))
    profile = Profiler(topology, noise=0.02, seed=SEED).profile(model)
    cost_model = MoECostModel(profile, model)
    trace = DriftingRoutingGenerator(
        NUM_EXPERTS,
        NUM_GPUS,
        WorkloadConfig(
            tokens_per_step=4096 * NUM_GPUS,
            num_steps=NUM_STEPS,
            skew=1.3,
            seed=SEED,
        ),
    ).generate()
    policy = PolicyMaker(
        cost_model,
        use_delta=True,
        topology=topology,
        placement_search="hierarchical",
    )
    placement = scrambled_placement(np.random.default_rng(SEED))
    rounds = []
    for step in range(NUM_STEPS):
        assignment = trace.step(step)
        for _ in range(PLANS_PER_STEP):
            actions = policy.make_plan(assignment, placement).actions
            rounds.append([_action_record(a) for a in actions])
            if not actions:
                break
            for action in actions:
                action.apply(placement)
    return {
        "num_gpus": NUM_GPUS,
        "num_experts": NUM_EXPERTS,
        "seed": SEED,
        "rounds": rounds,
        "evaluations": int(policy.delta.evaluations),
        "probes": len(profile._bps_cache),
        "probe_digest": probe_digest(profile),
        "fallbacks": int(policy.delta.fallbacks),
    }


def test_hierarchical_probe_order_matches_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    observed = replay()
    assert observed["rounds"] == golden["rounds"]
    assert any(golden["rounds"]), "the pinned replay must propose actions"
    assert observed["evaluations"] == golden["evaluations"]
    assert observed["probes"] == golden["probes"]
    assert observed["probe_digest"] == golden["probe_digest"]
    assert observed["fallbacks"] == golden["fallbacks"] == 0


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(replay(), indent=1) + "\n")
