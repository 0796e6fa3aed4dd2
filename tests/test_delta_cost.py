"""DeltaStepCost equivalence: incremental == full recompute, always.

The delta evaluator is only allowed to be *faster* than the memoized
reference path, never different: every query shape (rebase, pair sweep,
exchange sweep, trial evaluation) is checked against
:class:`~repro.core.cost_model.MemoizedStepCost` to float tolerance on
noisy and exact profiles, with and without a live cluster state, and the
fallback accounting (the perf smoke's CI gate) is pinned down.

The reference comparisons run on every :data:`CASES` entry: the dense
8-device regime, where each expert sits on most devices, and 256-device
clusters where each of 32 experts holds a few percent of the devices --
the holder-sparse regime the evaluator's storage is built for -- with
packed vExperts, an expert without demand, and per-GPU NIC scales (which
route the All-to-All term through the dense bandwidth model).
"""

from dataclasses import dataclass
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.events import ClusterState
from repro.cluster.profiler import Profiler
from repro.cluster.topology import ClusterTopology
from repro.config import (
    HIERARCHICAL_AUTO_THRESHOLD,
    ClusterConfig,
    MoEModelConfig,
)
from repro.core.cost_model import MemoizedStepCost, MoECostModel
from repro.core.delta import DeltaStepCost
from repro.core.migration import MigrationPlanner
from repro.core.placement import Placement
from repro.core.policy import PolicyMaker
from repro.core.primitives import Migrate
from repro.exceptions import RoutingError, SchedulingError

MODEL = MoEModelConfig("delta", num_layers=2, d_model=256, d_ffn=1024, num_experts=8)
CLUSTER = ClusterConfig(num_nodes=2, gpus_per_node=4)
RTOL = 1e-9


def build_cost_model(noise: float = 0.02, state: ClusterState | None = None):
    topology = ClusterTopology(CLUSTER)
    profile = Profiler(topology, noise=noise, seed=0).profile(MODEL)
    return MoECostModel(profile, MODEL, cluster_state=state)


def random_placement(rng, slots=4) -> Placement:
    return CASES["dense-8g"].placement(rng, slots)


@dataclass(frozen=True)
class Case:
    """One reference-comparison regime.

    ``moves`` random single-vExpert moves perturb the balanced layout;
    ``packs`` of them are forced onto a device the expert already holds
    (counts above 1); ``idle_expert`` gets an all-zero assignment row.
    """

    num_experts: int
    cluster: ClusterConfig
    slots: int
    moves: int
    packs: int = 0
    idle_expert: int | None = None
    rounds: int = 10

    @property
    def num_gpus(self) -> int:
        return self.cluster.num_gpus

    def cost_model(self) -> MoECostModel:
        return _case_cost_model(self)

    def placement(self, rng, slots: int | None = None) -> Placement:
        experts, gpus = self.num_experts, self.num_gpus
        placement = Placement.balanced(experts, gpus, slots or self.slots)
        for _ in range(self.moves):
            expert = int(rng.integers(experts))
            src = placement.gpus_of(expert)[0]
            target = int(rng.integers(experts))
            if placement.replicas(expert) > 1:
                placement.remove_vexpert(expert, src)
                placement.add_vexpert(target, src)
        for _ in range(self.packs):
            # Swap a co-resident out for a second copy of an expert the
            # device already hosts.
            gpu = int(rng.integers(gpus))
            hosted = placement.experts_on(gpu)
            expert = int(rng.choice(hosted))
            victims = [e for e in hosted if placement.replicas(e) > 1]
            victims = [e for e in victims if e != expert]
            if victims:
                placement.remove_vexpert(int(rng.choice(victims)), gpu)
                placement.add_vexpert(expert, gpu)
        if self.packs:
            assert placement.counts_view.max() > 1
        return placement

    def assignment(self, rng) -> np.ndarray:
        assignment = rng.integers(0, 30_000, (self.num_experts, self.num_gpus))
        if self.idle_expert is not None:
            assignment[self.idle_expert] = 0
        return assignment


SPARSE_CLUSTER = ClusterConfig(num_nodes=32, gpus_per_node=8)
CASES = {
    "dense-8g": Case(8, CLUSTER, slots=4, moves=8),
    "sparse-256g": Case(32, SPARSE_CLUSTER, slots=2, moves=32, rounds=4),
    "packed-256g": Case(
        32, SPARSE_CLUSTER, slots=2, moves=16, packs=24, rounds=4
    ),
    "idle-expert-256g": Case(
        32, SPARSE_CLUSTER, slots=2, moves=16, idle_expert=5, rounds=4
    ),
    "nic-scaled-256g": Case(
        32,
        SPARSE_CLUSTER.replace(
            bandwidth_scales=tuple(
                np.random.default_rng(3).choice([0.25, 0.5, 1.0], 256)
            )
        ),
        slots=2,
        moves=16,
        packs=8,
        idle_expert=11,
        rounds=4,
    ),
}


@cache
def _case_cost_model(case: Case) -> MoECostModel:
    model = MoEModelConfig(
        "delta", num_layers=2, d_model=256, d_ffn=1024,
        num_experts=case.num_experts,
    )
    topology = ClusterTopology(case.cluster)
    profile = Profiler(topology, noise=0.02, seed=0).profile(model)
    cost_model = MoECostModel(profile, model)
    # Small and NIC-scaled fabrics are profiled per link into the dense
    # model; the other 256-device cases take the node-blocked one.
    assert profile.bandwidth_model().is_blocked == (
        case.num_gpus > HIERARCHICAL_AUTO_THRESHOLD
        and case.cluster.bandwidth_scales is None
    )
    return cost_model


#: The holder-sparse regimes each reference comparison also runs on.
SPARSE_CASES = [name for name in CASES if name != "dense-8g"]


@pytest.fixture
def cost_model() -> MoECostModel:
    return build_cost_model()


class TestRebase:
    def test_base_time_matches_reference(self, rng):
        self.check(CASES["dense-8g"], rng)

    @pytest.mark.parametrize("name", SPARSE_CASES)
    def test_sparse_regime(self, name, rng):
        self.check(CASES[name], rng)

    @staticmethod
    def check(case: Case, rng) -> None:
        cost_model = case.cost_model()
        memo = MemoizedStepCost(cost_model)
        delta = DeltaStepCost(cost_model)
        for _ in range(2 * case.rounds):
            placement = case.placement(rng)
            assignment = case.assignment(rng)
            base = delta.rebase(assignment, placement)
            assert base == pytest.approx(
                memo.step_time(assignment, placement), rel=RTOL
            )
            # Re-rebasing the same assignment on a mutated placement takes
            # the incremental index update.
            expert = int(np.argmax(placement.replica_counts()))
            gpu = placement.gpus_of(expert)[0]
            placement.remove_vexpert(expert, gpu)
            placement.add_vexpert((expert + 1) % case.num_experts, gpu)
            base = delta.rebase(assignment, placement)
            assert base == pytest.approx(
                memo.step_time(assignment, placement), rel=RTOL
            )

    def test_shape_mismatch_rejected(self, cost_model):
        delta = DeltaStepCost(cost_model)
        with pytest.raises(RoutingError):
            delta.rebase(np.zeros((4, 4)), Placement.balanced(8, 8, 2))

    def test_negative_tokens_rejected(self, cost_model):
        delta = DeltaStepCost(cost_model)
        assignment = np.zeros((8, 8))
        assignment[0, 0] = -1
        with pytest.raises(RoutingError):
            delta.rebase(assignment, Placement.balanced(8, 8, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_tokens_rejected(self, cost_model, bad):
        # A NaN base time makes every `effective < t0` test false, so the
        # planners would silently stop acting instead of failing.
        delta = DeltaStepCost(cost_model)
        assignment = np.ones((8, 8))
        assignment[3, 5] = bad
        with pytest.raises(RoutingError, match="finite"):
            delta.rebase(assignment, Placement.balanced(8, 8, 2))

    def test_query_without_base_raises(self, cost_model):
        delta = DeltaStepCost(cost_model)
        with pytest.raises(SchedulingError):
            delta.trial_time(Placement.balanced(8, 8, 2), (0,))


class TestPairSweep:
    def test_matches_applying_the_pair(self, rng):
        self.check(CASES["dense-8g"], rng)

    @pytest.mark.parametrize("name", SPARSE_CASES)
    def test_sparse_regime(self, name, rng):
        self.check(CASES[name], rng)

    @staticmethod
    def check(case: Case, rng) -> None:
        cost_model = case.cost_model()
        memo = MemoizedStepCost(cost_model)
        delta = DeltaStepCost(cost_model, audit=True)
        for _ in range(case.rounds):
            placement = case.placement(rng)
            assignment = case.assignment(rng)
            delta.rebase(assignment, placement)
            e0, e1 = (
                int(e) for e in rng.choice(case.num_experts, 2, replace=False)
            )
            if placement.replicas(e1) <= 1:
                continue
            gpus = np.array(placement.gpus_of(e1))
            times = delta.pair_candidate_times(placement, e0, e1, gpus)
            for i, gpu in enumerate(gpus):
                trial = placement.copy()
                trial.remove_vexpert(e1, int(gpu))
                trial.add_vexpert(e0, int(gpu))
                assert times[i] == pytest.approx(
                    memo.step_time(assignment, trial), rel=RTOL
                )
            assert delta.fallbacks == 0

    def test_same_expert_rejected(self, cost_model, rng):
        delta = DeltaStepCost(cost_model)
        placement = Placement.balanced(8, 8, 4)
        delta.rebase(rng.integers(0, 1000, (8, 8)), placement)
        with pytest.raises(SchedulingError):
            delta.pair_candidate_times(placement, 3, 3, np.array([0]))


class TestPairCandidates:
    """One routed batch of many pairs, finished range by range."""

    @staticmethod
    def batch_inputs(case: Case, rng):
        """A based evaluator plus mixed (expand, shrink, gpu) candidates:
        several pairs, each over every holder of its shrink expert."""
        cost_model = case.cost_model()
        delta = DeltaStepCost(cost_model)
        placement = case.placement(rng)
        delta.rebase(case.assignment(rng), placement)
        expand, shrink, gpus = [], [], []
        while len(expand) < 4:
            e0, e1 = (
                int(e) for e in rng.choice(case.num_experts, 2, replace=False)
            )
            if placement.replicas(e1) > 1:
                holders = placement.gpus_of(e1)
                expand.append(np.full(len(holders), e0))
                shrink.append(np.full(len(holders), e1))
                gpus.append(np.array(holders))
        return delta, placement, expand, shrink, gpus

    @pytest.mark.parametrize("name", ["dense-8g", "sparse-256g"])
    def test_sub_ranges_are_bit_identical(self, name, rng):
        case = CASES[name]
        delta, placement, expand, shrink, gpus = self.batch_inputs(case, rng)
        per_pair = np.concatenate(
            [
                delta.pair_candidate_times(placement, e[0], s[0], g)
                for e, s, g in zip(expand, shrink, gpus)
            ]
        )
        expand, shrink, gpus = map(np.concatenate, (expand, shrink, gpus))
        whole = delta.pair_candidates(placement, expand, shrink, gpus).times()
        batch = delta.pair_candidates(placement, expand, shrink, gpus)
        cuts = np.sort(rng.choice(np.arange(1, gpus.size), 3, replace=False))
        bounds = [0, *cuts.tolist(), gpus.size]
        pieces = np.concatenate(
            [batch.times(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        )
        np.testing.assert_array_equal(pieces, whole)
        np.testing.assert_array_equal(per_pair, whole)

    def test_scalars_broadcast(self, rng):
        delta, placement, expand, shrink, gpus = self.batch_inputs(
            CASES["dense-8g"], rng
        )
        e0, e1, g = int(expand[0][0]), int(shrink[0][0]), gpus[0]
        batch = delta.pair_candidates(placement, e0, e1, g)
        assert len(batch) == g.size
        np.testing.assert_array_equal(
            batch.times(),
            delta.pair_candidates(
                placement, np.full(g.size, e0), np.full(g.size, e1), g
            ).times(),
        )
        assert len(delta.pair_candidates(placement, e0, e1, [])) == 0

    def test_evaluations_count_finished_candidates_only(self, rng):
        delta, placement, expand, shrink, gpus = self.batch_inputs(
            CASES["dense-8g"], rng
        )
        expand, shrink, gpus = map(np.concatenate, (expand, shrink, gpus))
        before = delta.evaluations
        batch = delta.pair_candidates(placement, expand, shrink, gpus)
        assert delta.evaluations == before
        batch.times(2, 5)
        assert delta.evaluations == before + 3
        batch.times(5, 5)
        assert delta.evaluations == before + 3

    def test_audit_checks_only_the_finished_range(self, rng):
        case = CASES["dense-8g"]
        _, placement, expand, shrink, gpus = self.batch_inputs(case, rng)
        expand, shrink, gpus = map(np.concatenate, (expand, shrink, gpus))
        delta = DeltaStepCost(case.cost_model(), audit=True)
        delta.rebase(case.assignment(rng), placement)
        checked = []
        audit_check = delta._audit_check

        def spy(claimed, counts):
            checked.append(claimed)
            audit_check(claimed, counts)

        delta._audit_check = spy
        batch = delta.pair_candidates(placement, expand, shrink, gpus)
        assert checked == []
        times = batch.times(1, 4)
        assert checked == times.tolist()

    def test_misuse_rejected(self, rng):
        case = CASES["dense-8g"]
        delta, placement, expand, shrink, gpus = self.batch_inputs(case, rng)
        batch = delta.pair_candidates(
            placement, expand[0], shrink[0], gpus[0]
        )
        with pytest.raises(SchedulingError):
            batch.times(0, len(batch) + 1)
        with pytest.raises(SchedulingError):
            delta.pair_candidates(placement, [1, 2], [2, 2], [0, 1])
        delta.rebase(case.assignment(rng), placement)
        with pytest.raises(SchedulingError, match="rebase"):
            batch.times()


class TestExchangeSweep:
    def test_matches_applying_the_exchange(self, rng):
        self.check(CASES["dense-8g"], rng)

    @pytest.mark.parametrize("name", SPARSE_CASES)
    def test_sparse_regime(self, name, rng):
        self.check(CASES[name], rng)

    @staticmethod
    def check(case: Case, rng) -> None:
        cost_model = case.cost_model()
        memo = MemoizedStepCost(cost_model)
        delta = DeltaStepCost(cost_model, audit=True)
        for _ in range(case.rounds):
            placement = case.placement(rng)
            assignment = case.assignment(rng)
            delta.rebase(assignment, placement)
            pairs = []
            for _ in range(6):
                ea = int(rng.integers(case.num_experts))
                holders = placement.gpus_of(ea)
                ga = int(rng.choice(holders))
                # Half the exchanges land on a device ea already holds.
                pool = holders if rng.random() < 0.5 else case.num_gpus
                gb = int(rng.choice(pool))
                if gb == ga:
                    continue
                partners = [e for e in placement.experts_on(gb) if e != ea]
                if not partners:
                    continue
                pairs.append((ea, ga, int(rng.choice(partners)), gb))
            if not pairs:
                continue
            times = delta.exchange_candidate_times(
                placement, np.array(pairs)
            )
            for (ea, ga, eb, gb), time in zip(pairs, times):
                trial = placement.copy()
                Migrate(expert_a=ea, gpu_a=ga, expert_b=eb, gpu_b=gb).apply(
                    trial
                )
                assert time == pytest.approx(
                    memo.step_time(assignment, trial), rel=RTOL
                )
            assert delta.fallbacks == 0


class TestTrialTime:
    def test_matches_reference_through_the_journal(self, rng):
        self.check(CASES["dense-8g"], rng)

    @pytest.mark.parametrize("name", SPARSE_CASES)
    def test_sparse_regime(self, name, rng):
        self.check(CASES[name], rng)

    @staticmethod
    def check(case: Case, rng) -> None:
        cost_model = case.cost_model()
        memo = MemoizedStepCost(cost_model)
        delta = DeltaStepCost(cost_model, audit=True)
        placement = case.placement(rng)
        assignment = case.assignment(rng)
        delta.rebase(assignment, placement)
        checked = 0
        for _ in range(2 * case.rounds):
            e0, e1 = (
                int(e) for e in rng.choice(case.num_experts, 2, replace=False)
            )
            if placement.replicas(e1) <= 1:
                continue
            gpu = int(rng.choice(placement.gpus_of(e1)))
            with placement.trial() as trial:
                trial.remove_vexpert(e1, gpu)
                trial.add_vexpert(e0, gpu)
                incremental = delta.trial_time(trial, (e0, e1))
                reference = memo.step_time(assignment, trial)
            assert incremental == pytest.approx(reference, rel=RTOL)
            checked += 1
        assert checked > 0
        assert delta.fallbacks == 0

    def test_audit_catches_wrong_changed_set(self, cost_model, rng):
        delta = DeltaStepCost(cost_model, audit=True)
        placement = random_placement(rng)
        assignment = rng.integers(1000, 30_000, (8, 8))
        delta.rebase(assignment, placement)
        e1 = next(e for e in range(8) if placement.replicas(e) > 1)
        e0 = (e1 + 1) % 8
        gpu = placement.gpus_of(e1)[0]
        with placement.trial() as trial:
            trial.remove_vexpert(e1, gpu)
            trial.add_vexpert(e0, gpu)
            with pytest.raises(SchedulingError):
                # Claiming only e0 changed hides e1's mutation.
                delta.trial_time(trial, (e0,))


class TestFallbacks:
    def test_foreign_placement_counts_a_fallback(self, cost_model, rng):
        delta = DeltaStepCost(cost_model)
        placement = Placement.balanced(8, 8, 4)
        other = Placement.balanced(8, 8, 4)
        assignment = rng.integers(0, 10_000, (8, 8))
        delta.rebase(assignment, placement)
        gpus = np.array(other.gpus_of(1))
        delta.pair_candidate_times(other, 0, 1, gpus)
        assert delta.fallbacks == 1

    def test_cluster_state_change_falls_back_correctly(self, rng):
        state = ClusterState(8)
        cost_model = build_cost_model(state=state)
        memo = MemoizedStepCost(cost_model)
        delta = DeltaStepCost(cost_model)
        placement = Placement.balanced(8, 8, 4)
        assignment = rng.integers(0, 10_000, (8, 8))
        delta.rebase(assignment, placement)
        # A straggler appears mid-search: the cached base is stale.
        state.set_speed(3, 0.5)
        e1 = next(e for e in range(8) if placement.replicas(e) > 1)
        e0 = (e1 + 1) % 8
        with placement.trial() as trial:
            gpu = placement.gpus_of(e1)[0]
            trial.remove_vexpert(e1, gpu)
            trial.add_vexpert(e0, gpu)
            stale_safe = delta.trial_time(trial, (e0, e1))
            reference = memo.step_time(assignment, trial)
        assert delta.fallbacks == 1
        assert stale_safe == pytest.approx(reference, rel=RTOL)

    def test_speed_aware_pricing_matches_reference(self, rng):
        state = ClusterState(8)
        state.set_speed(1, 0.5)
        state.fail(2)
        cost_model = build_cost_model(state=state)
        memo = MemoizedStepCost(cost_model)
        delta = DeltaStepCost(cost_model, audit=True)
        placement = Placement.balanced(8, 8, 4)
        assignment = rng.integers(0, 10_000, (8, 8))
        base = delta.rebase(assignment, placement)
        assert base == pytest.approx(
            memo.step_time(assignment, placement), rel=RTOL
        )


@pytest.mark.parametrize("search", ["flat", "hierarchical"])
def test_audited_planner_replay_in_the_sparse_regime(search, rng):
    """Policy Maker + Migrate on one audited evaluator at 256 devices.

    Every candidate either planner prices is cross-checked against a full
    recomputation, with the placement evolving as a live scheduler's
    would (packed copies and all).
    """
    case = CASES["packed-256g"]
    cost_model = case.cost_model()
    topology = ClusterTopology(case.cluster)
    audited = DeltaStepCost(cost_model, audit=True)
    policy = PolicyMaker(
        cost_model, topology=topology, placement_search=search
    )
    policy._delta = audited
    migration = MigrationPlanner(
        cost_model, topology, placement_search=search, delta=audited
    )
    placement = case.placement(rng)
    acted = 0
    for _ in range(3):
        assignment = case.assignment(rng)
        decision = policy.make_plan(assignment, placement)
        for action in decision.actions:
            action.apply(placement)
        moves = migration.plan(assignment, placement)
        for move in moves:
            move.apply(placement)
        acted += len(decision.actions) + len(moves)
        placement.validate()
    assert acted > 0
    assert audited.evaluations > 0
    assert audited.fallbacks == 0


EXACT_COST_MODEL = build_cost_model(noise=0.0)
EXACT_MEMO = MemoizedStepCost(EXACT_COST_MODEL)


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(st.integers(0, 50_000), min_size=64, max_size=64),
    slots=st.integers(2, 5),
    e0=st.integers(0, 7),
    e1=st.integers(0, 7),
)
def test_property_pair_sweep_matches_full_evaluation(data, slots, e0, e1):
    """Every (Shrink, Expand) candidate's delta time equals the full path."""
    if e0 == e1:
        return
    assignment = np.array(data, dtype=np.int64).reshape(8, 8)
    placement = Placement.balanced(8, 8, slots)
    if placement.replicas(e1) <= 1:
        return
    delta = DeltaStepCost(EXACT_COST_MODEL)
    delta.rebase(assignment, placement)
    gpus = np.array(placement.gpus_of(e1))
    times = delta.pair_candidate_times(placement, e0, e1, gpus)
    for i, gpu in enumerate(gpus):
        trial = placement.copy()
        trial.remove_vexpert(e1, int(gpu))
        trial.add_vexpert(e0, int(gpu))
        full = EXACT_MEMO.step_time(assignment, trial)
        assert times[i] == pytest.approx(full, rel=RTOL)
