"""Cost-model memoization: cached evaluations must equal uncached ones."""

import numpy as np
import pytest

from repro.cluster.profiler import Profiler
from repro.cluster.topology import ClusterTopology
from repro.config import ClusterConfig, MoEModelConfig
from repro.core.cost_model import MemoizedStepCost, MoECostModel
from repro.core.placement import Placement
from repro.core.policy import PolicyMaker
from repro.core.router import FlexibleTokenRouter
from repro.exceptions import ConfigurationError

MODEL = MoEModelConfig("memo", num_layers=2, d_model=256, d_ffn=1024, num_experts=8)
CLUSTER = ClusterConfig(num_nodes=1, gpus_per_node=4)


@pytest.fixture
def cost_model() -> MoECostModel:
    topology = ClusterTopology(CLUSTER)
    profile = Profiler(topology, noise=0.0, seed=0).profile(MODEL)
    return MoECostModel(profile, MODEL)


def test_memo_matches_uncached(cost_model, rng):
    router = FlexibleTokenRouter()
    memo = MemoizedStepCost(cost_model, router)
    for _ in range(20):
        placement = Placement.balanced(8, 4, int(rng.integers(2, 5)))
        assignment = rng.integers(0, 3000, (8, 4))
        uncached = cost_model.step_time(
            router.route_fractional(assignment, placement), placement
        )
        assert memo.step_time(assignment, placement) == uncached
        # Replay: the cached value must be bit-identical too.
        assert memo.step_time(assignment, placement) == uncached


def test_hit_and_miss_accounting(cost_model, rng):
    memo = MemoizedStepCost(cost_model)
    placement = Placement.balanced(8, 4, 2)
    a = rng.integers(0, 1000, (8, 4))
    b = rng.integers(0, 1000, (8, 4))
    memo.step_time(a, placement)
    memo.step_time(a, placement)
    memo.step_time(b, placement)
    assert memo.misses == 2
    assert memo.hits == 1
    assert memo.hit_rate == pytest.approx(1 / 3)
    assert memo.stats()["entries"] == 2.0


def test_distinct_placements_are_distinct_keys(cost_model, rng):
    memo = MemoizedStepCost(cost_model)
    assignment = rng.integers(0, 1000, (8, 4))
    balanced = Placement.balanced(8, 4, 4)  # two replicas per expert
    shifted = balanced.copy()
    shifted.remove_vexpert(0, balanced.gpus_of(0)[0])
    shifted.add_vexpert(1, balanced.gpus_of(0)[0])
    memo.step_time(assignment, balanced)
    memo.step_time(assignment, shifted)
    assert memo.misses == 2


def test_lru_eviction(cost_model, rng):
    memo = MemoizedStepCost(cost_model, capacity=2)
    placement = Placement.balanced(8, 4, 2)
    frames = [rng.integers(0, 1000, (8, 4)) for _ in range(3)]
    for frame in frames:
        memo.step_time(frame, placement)
    assert memo.stats()["entries"] == 2.0
    # The oldest entry was evicted: querying it again misses.
    memo.step_time(frames[0], placement)
    assert memo.misses == 4


def test_capacity_validated(cost_model):
    with pytest.raises(ConfigurationError):
        MemoizedStepCost(cost_model, capacity=0)


def test_policy_maker_uses_memo(cost_model, rng):
    # The reference (non-delta) search path runs on the memo; the delta
    # path has its own evaluator and is covered by test_delta_cost.py.
    policy = PolicyMaker(cost_model, use_delta=False)
    placement = Placement.balanced(8, 4, 4)
    assignment = rng.integers(0, 5000, (8, 4))
    policy.make_plan(assignment, placement)
    first_misses = policy.memo.misses
    assert first_misses > 0
    # Same query again: the search replays entirely from the memo.
    policy.make_plan(assignment, placement)
    assert policy.memo.misses == first_misses
    assert policy.memo.hits > 0


def test_assignment_key_precomputation_matches(cost_model, rng):
    memo = MemoizedStepCost(cost_model)
    placement = Placement.balanced(8, 4, 2)
    assignment = rng.integers(0, 1000, (8, 4))
    key = MemoizedStepCost.assignment_key(assignment)
    direct = memo.step_time(assignment, placement)
    keyed = memo.step_time(assignment, placement, assignment_key=key)
    assert keyed == direct
    assert memo.hits == 1  # the precomputed key found the same entry
    stats = memo.stats()
    assert stats["hits"] == 1.0 and stats["misses"] == 1.0


def test_policy_decisions_unchanged_by_memo(cost_model, rng):
    # Two fresh policy makers (cold caches) agree; and a warm cache gives
    # the same plan as a cold one.
    placement = Placement.balanced(8, 4, 4)
    assignment = rng.integers(0, 5000, (8, 4))
    cold = PolicyMaker(cost_model, use_delta=False).make_plan(
        assignment, placement.copy()
    )
    warm_policy = PolicyMaker(cost_model, use_delta=False)
    warm_policy.make_plan(assignment, placement.copy())
    warm = warm_policy.make_plan(assignment, placement.copy())
    assert cold.actions == warm.actions
    assert cold.time_after == warm.time_after


def test_phase_stats_attribute_hits_to_callers(cost_model, rng):
    memo = MemoizedStepCost(cost_model)
    placement = Placement.balanced(8, 4, 2)
    assignment = rng.integers(0, 1000, (8, 4))
    memo.step_time(assignment, placement, phase="policy")
    memo.step_time(assignment, placement, phase="migration")
    memo.step_time(assignment, placement, phase="migration")
    stats = memo.phase_stats()
    assert stats["policy"] == {"hits": 0.0, "misses": 1.0, "hit_rate": 0.0}
    assert stats["migration"]["hits"] == 2.0
    assert stats["migration"]["hit_rate"] == 1.0
    assert memo.stats()["phases"] == stats
    # Unattributed queries count globally but under no phase.
    memo.step_time(assignment, placement)
    assert memo.hits == 3
    assert memo.phase_stats() == stats


def test_memo_exact_across_mutate_and_undo(cost_model, rng):
    """Mutate, price, undo the mutation, re-price: every cached answer
    must equal the freshly derived one."""
    router = FlexibleTokenRouter()
    memo = MemoizedStepCost(cost_model, router)
    placement = Placement.balanced(8, 4, 4)
    assignment = rng.integers(0, 3000, (8, 4))

    def uncached(p):
        return cost_model.step_time(
            router.route_fractional(assignment, p), p
        )

    base = memo.step_time(assignment, placement)
    assert base == uncached(placement)
    gpu = placement.gpus_of(0)[0]
    placement.remove_vexpert(0, gpu)
    placement.add_vexpert(1, gpu)
    mutated_cost = memo.step_time(assignment, placement)
    assert mutated_cost == uncached(placement)
    placement.remove_vexpert(1, gpu)
    placement.add_vexpert(0, gpu)
    # Back at the base content under a fresh state token: the memo must
    # hit the content key AND return the exact original value.
    hits = memo.hits
    assert memo.step_time(assignment, placement) == base
    assert memo.hits == hits + 1


def test_shared_memo_hits_on_migration_baseline(cost_model, rng):
    """The Scheduler shares one memo between the Policy Maker and the
    Migration Planner, so the planner's reference-path baseline -- the
    exact configuration the policy just scored -- is a cache hit."""
    from repro.cluster.topology import ClusterTopology
    from repro.core.migration import MigrationPlanner

    topology = ClusterTopology(CLUSTER)
    policy = PolicyMaker(cost_model, use_delta=False)
    planner = MigrationPlanner(
        cost_model, topology, use_delta=False, memo=policy.memo
    )
    placement = Placement.balanced(8, 4, 4)
    assignment = rng.integers(0, 5000, (8, 4))
    policy.make_plan(assignment, placement)
    before = policy.memo.hits
    planner.step_time(assignment, placement)
    assert policy.memo.hits == before + 1
    phases = policy.memo.phase_stats()
    assert phases["migration"]["hits"] == 1.0


from hypothesis import HealthCheck, given, settings, strategies as st


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["add", "remove", "move"]),
            st.integers(0, 7),  # expert
            st.integers(0, 3),  # gpu / destination
        ),
        min_size=1,
        max_size=25,
    ),
    seed=st.integers(0, 2**16),
)
def test_memo_exact_under_random_mutation(cost_model, ops, seed):
    """Property: after ANY sequence of placement mutations, the memo
    returns the bit-exact uncached cost -- hits included (the state-token
    shortcut never replays a stale entry)."""
    rng = np.random.default_rng(seed)
    router = FlexibleTokenRouter()
    memo = MemoizedStepCost(cost_model, router)
    placement = Placement.balanced(8, 4, 4)
    assignment = rng.integers(0, 3000, (8, 4))
    for op, expert, gpu in ops:
        try:
            if op == "add":
                placement.add_vexpert(expert, gpu)
            elif op == "remove":
                placement.remove_vexpert(expert, gpu)
            elif op == "move":
                src = placement.gpus_of(expert)[0]
                placement.add_vexpert(expert, gpu)
                placement.remove_vexpert(expert, src)
        except Exception:
            # Illegal mutations (full GPU, last replica, same GPU...)
            # are not the property under test; the memo must stay exact
            # regardless of which ops succeeded.
            pass
        uncached = cost_model.step_time(
            router.route_fractional(assignment, placement), placement
        )
        assert memo.step_time(assignment, placement) == uncached
