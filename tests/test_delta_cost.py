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
packed vExperts and an expert without demand.
"""

import tracemalloc
from dataclasses import dataclass
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.harness import cluster_for
from repro.cluster.bandwidth import BandwidthModel
from repro.cluster.events import ClusterState
from repro.cluster.profiler import Profiler
from repro.cluster.topology import ClusterTopology
from repro.config import (
    HIERARCHICAL_AUTO_THRESHOLD,
    ClusterConfig,
    MoEModelConfig,
    WorkloadConfig,
    auto_slots_per_gpu,
)
from repro.core.cost_model import MemoizedStepCost, MoECostModel
from repro.core.delta import DeltaStepCost
from repro.core.migration import MigrationPlanner
from repro.core.placement import Placement
from repro.core.policy import PolicyMaker
from repro.core.primitives import Expand, Migrate, Shrink
from repro.core.router import FlexibleTokenRouter
from repro.exceptions import RoutingError, SchedulingError
from repro.workload.synthetic import (
    DriftingRoutingGenerator,
    make_multilayer_trace,
)

MODEL = MoEModelConfig("delta", num_layers=2, d_model=256, d_ffn=1024, num_experts=8)
CLUSTER = ClusterConfig(num_nodes=2, gpus_per_node=4)
RTOL = 1e-9


def build_cost_model(noise: float = 0.02, state: ClusterState | None = None):
    topology = ClusterTopology(CLUSTER)
    profile = Profiler(topology, noise=noise, seed=0).profile(MODEL)
    return MoECostModel(profile, MODEL, cluster_state=state)


def random_placement(rng, slots=4) -> Placement:
    return CASES["dense-8g"].placement(rng, slots)


def oracle_check(delta: DeltaStepCost) -> list[float]:
    """Re-price every candidate ``delta`` finishes with the full-recompute
    oracle, on the same cost model.

    Each finished candidate's count matrix is rebuilt from the base's
    holder entries and the batch's edited rows, routed fractionally from
    scratch and priced by :meth:`MoECostModel.step_time`; a time more
    than :data:`RTOL` away from the oracle's fails. Returns the list the
    checked times are appended to, in finishing order.
    """
    finish = delta._finish
    router = FlexibleTokenRouter()
    checked = []

    def checked_finish(batch, lo, hi):
        times = finish(batch, lo, hi)
        base = np.zeros(delta._assignment.shape, dtype=np.int64)
        base[delta._expert, delta._gpu] = delta._count
        _, _, row, gpu, count = batch.entries
        for cand, claimed in enumerate(times, start=lo):
            counts = base.copy()
            rows = np.flatnonzero(batch.row_cand == cand)
            counts[batch.row_expert[rows]] = 0
            mine = np.isin(row, rows)
            counts[batch.row_expert[row[mine]], gpu[mine]] = count[mine]
            candidate = Placement(counts, delta._placement.slots_per_gpu)
            oracle = delta._cost_model.step_time(
                router.route_fractional(delta._assignment, candidate),
                candidate,
            )
            assert claimed == pytest.approx(oracle, rel=RTOL)
            checked.append(float(claimed))
        return times

    delta._finish = checked_finish
    return checked


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
    # Small fabrics are profiled per link into the dense model; the
    # 256-device cases take the node-blocked one.
    assert profile.bandwidth_model()._blocked == (
        case.num_gpus > HIERARCHICAL_AUTO_THRESHOLD
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

    def test_full_recompute_oracle_at_1024_devices(self, rng):
        """The fractional plan is sparse, so the full-recompute oracle
        prices a 1024-device step without an ``(E, G, G)`` tensor."""
        case = Case(
            32, ClusterConfig(num_nodes=128, gpus_per_node=8), slots=2,
            moves=64, packs=8,
        )
        cost_model = case.cost_model()
        router = FlexibleTokenRouter()
        delta = DeltaStepCost(cost_model)
        for _ in range(2):
            placement = case.placement(rng)
            assignment = case.assignment(rng)
            oracle = cost_model.step_time(
                router.route_fractional(assignment, placement), placement
            )
            assert delta.rebase(assignment, placement) == pytest.approx(
                oracle, rel=RTOL
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

    def test_rejected_new_demand_leaves_no_base(self, cost_model):
        """A new-demand rebase drops the old snapshot before taking the
        new one, so a rejected demand leaves no stale base to query."""
        delta = DeltaStepCost(cost_model)
        placement = Placement.balanced(8, 8, 2)
        good = np.full((8, 8), 100.0)
        delta.rebase(good, placement)
        bad = good.copy()
        bad[2, 3] = -1
        with pytest.raises(RoutingError):
            delta.rebase(bad, placement)
        with pytest.raises(SchedulingError):
            delta.pair_candidates(placement, 0, 1, 0)
        with pytest.raises(SchedulingError):
            delta.expert_loads
        assert delta.rebase(good, placement) == DeltaStepCost(
            cost_model
        ).rebase(good, placement)

    def test_query_without_base_raises(self, cost_model):
        delta = DeltaStepCost(cost_model)
        with pytest.raises(SchedulingError):
            delta.pair_candidates(Placement.balanced(8, 8, 2), 0, 1, 0)


def frozen(array: np.ndarray) -> np.ndarray:
    """A read-only array owning its memory: no holder can write it."""
    array = np.array(array)
    array.setflags(write=False)
    return array


class TestDemandContract:
    """A frozen demand is kept by reference, anything else snapshotted.

    Kept or copied, the evaluator must read the values as passed: a
    caller's writeable array changed in place is a new demand, and bad
    counts are rejected either way.
    """

    CASE = CASES["packed-256g"]

    def test_frozen_trace_steps_are_not_copied(self, rng):
        case = self.CASE
        delta = DeltaStepCost(case.cost_model())
        placement = case.placement(rng)
        config = WorkloadConfig(tokens_per_step=1 << 20, num_steps=2, seed=4)
        trace = DriftingRoutingGenerator(
            case.num_experts, case.num_gpus, config
        ).generate()
        layers = make_multilayer_trace(
            2, case.num_experts, case.num_gpus, config
        )
        for step in (trace.step(0), trace.step(1), layers.step(1)[1]):
            delta.rebase(step, placement)
            assert delta._assignment is step
            assert delta._assignment.dtype == np.int32

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.float64])
    def test_writeable_input_is_snapshotted(self, dtype, rng):
        case = self.CASE
        cost_model = case.cost_model()
        delta = DeltaStepCost(cost_model)
        placement = case.placement(rng)
        assignment = case.assignment(rng).astype(dtype)
        delta.rebase(assignment, placement)
        assert not np.shares_memory(delta._assignment, assignment)
        # A change past the first row is only seen by the full compare.
        assignment[-1, -1] += 50_000
        changed = delta.rebase(assignment, placement)
        assert changed == DeltaStepCost(cost_model).rebase(
            assignment.copy(), placement
        )
        assert np.array_equal(delta.expert_loads, assignment.sum(axis=1))

    def test_read_only_view_of_a_writeable_base_is_snapshotted(self, rng):
        case = self.CASE
        delta = DeltaStepCost(case.cost_model())
        placement = case.placement(rng)
        base = case.assignment(rng)
        view = base.view()
        view.flags.writeable = False
        delta.rebase(view, placement)
        assert not np.shares_memory(delta._assignment, base)
        base[-1, -1] += 50_000
        delta.rebase(view, placement)
        assert np.array_equal(delta.expert_loads, base.sum(axis=1))

    @pytest.mark.parametrize(
        "dtype", [np.int16, np.uint16, np.uint64, ">i8"]
    )
    @pytest.mark.parametrize("read_only", [False, True])
    def test_other_integers_are_read_as_int64(self, dtype, read_only, rng):
        case = self.CASE
        cost_model = case.cost_model()
        delta = DeltaStepCost(cost_model)
        placement = case.placement(rng)
        assignment = case.assignment(rng)
        narrow = assignment.astype(dtype)
        if read_only:
            narrow = frozen(narrow)
        base = delta.rebase(narrow, placement)
        assert delta._assignment.dtype == np.int64
        assert base == DeltaStepCost(cost_model).rebase(
            frozen(assignment), placement
        )

    @pytest.mark.parametrize("read_only", [False, True])
    @pytest.mark.parametrize(
        "bad, match",
        [(-1, "non-negative"), (np.nan, "finite"), (np.inf, "finite")],
    )
    def test_bad_counts_rejected_kept_or_copied(
        self, read_only, bad, match, rng
    ):
        case = self.CASE
        delta = DeltaStepCost(case.cost_model())
        placement = case.placement(rng)
        dtype = np.int64 if bad == -1 else np.float64
        assignment = case.assignment(rng).astype(dtype)
        assignment[7, 100] = bad
        if read_only:
            assignment = frozen(assignment)
        with pytest.raises(RoutingError, match=match):
            delta.rebase(assignment, placement)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_negative_frozen_integers_rejected(self, dtype, rng):
        """The one-pass unsigned read still sees a negative count."""
        case = self.CASE
        delta = DeltaStepCost(case.cost_model())
        assignment = case.assignment(rng).astype(dtype)
        assignment[-1, -1] = np.iinfo(dtype).min
        with pytest.raises(RoutingError, match="non-negative"):
            delta.rebase(frozen(assignment), case.placement(rng))

    @pytest.mark.parametrize("row_total", [2**31 - 1, 2**31, 2**32 + 5])
    def test_int32_demand_near_the_limit_prices_like_int64(
        self, row_total, rng
    ):
        """A frozen int32 demand whose row total, and the node sum of the
        one node it sits on, reach 2**31 never wraps: it prices exactly
        like its int64 copy."""
        case = self.CASE
        cost_model = case.cost_model()
        placement = case.placement(rng)
        assignment = case.assignment(rng)
        cells = cluster_for(case.num_gpus).gpus_per_node
        assignment[3] = 0
        assignment[3, :cells] = row_total // cells
        assignment[3, cells] = row_total % cells
        assert assignment.max() < 2**31
        assert assignment[3].sum() == row_total
        narrow = frozen(assignment.astype(np.int32))
        delta = DeltaStepCost(cost_model)
        base = delta.rebase(narrow, placement)
        twin = DeltaStepCost(cost_model)
        assert base == twin.rebase(frozen(assignment), placement)
        assert delta.expert_loads[3] == row_total
        np.testing.assert_array_equal(delta.expert_loads, twin.expert_loads)

    def test_require_base_after_a_frozen_rebase_reroutes_only_moved_rows(
        self, monkeypatch, rng
    ):
        """A stale base is rebuilt from the evaluator's own frozen demand:
        identity settles it, so only the two experts a Migrate moved are
        re-routed and no source rows are prepared."""
        case = self.CASE
        delta = DeltaStepCost(case.cost_model())
        placement = case.placement(rng)
        delta.rebase(frozen(case.assignment(rng)), placement)
        routed, prepared = [], []
        route, source_rows = DeltaStepCost._route, BandwidthModel.source_rows

        def counted_route(self, row_expert, *args):
            routed.append(row_expert.size)
            return route(self, row_expert, *args)

        def counted_source_rows(self, sources):
            prepared.append(sources.shape)
            return source_rows(self, sources)

        monkeypatch.setattr(DeltaStepCost, "_route", counted_route)
        monkeypatch.setattr(BandwidthModel, "source_rows", counted_source_rows)
        gpu_a, gpu_b = 0, case.num_gpus - 1
        expert_a = placement.experts_on(gpu_a)[0]
        expert_b = next(
            e for e in placement.experts_on(gpu_b) if e != expert_a
        )
        Migrate(
            expert_a=expert_a, gpu_a=gpu_a, expert_b=expert_b, gpu_b=gpu_b
        ).apply(placement)
        routed.clear()
        delta.exchange_candidate_times(
            placement, [(expert_b, gpu_a, expert_a, gpu_b)]
        )
        assert delta.fallbacks == 1
        assert prepared == []
        # The fallback rebase routes the two moved rows; the query after
        # it routes its own candidate rows.
        assert routed[0] == 2


#: Rebase regimes: 16 devices on the dense (per-link) bandwidth model,
#: and 256 node-blocked devices with packed copies and an idle expert.
REBASE_CASES = {
    "dense-16g": Case(
        16, ClusterConfig(num_nodes=2, gpus_per_node=8), slots=4, moves=16,
        packs=4, rounds=8,
    ),
    "packed-idle-256g": Case(
        32, SPARSE_CLUSTER, slots=2, moves=16, packs=24, idle_expert=5,
        rounds=8,
    ),
}


class TestRebaseBitIdentity:
    """An incremental rebase leaves exactly a cold rebase's state.

    After each applied Shrink/Expand or Migrate, the re-based evaluator
    must agree with a fresh one rebased on the same configuration to the
    last bit: base time, holder index, expert loads and candidate prices.
    """

    @pytest.mark.parametrize("name", list(REBASE_CASES))
    @pytest.mark.parametrize("new_demand", [False, True])
    def test_matches_a_fresh_rebase(self, name, new_demand, rng):
        case = REBASE_CASES[name]
        cost_model = case.cost_model()
        assert cost_model.profile.bandwidth_model()._blocked == (
            case.num_gpus > HIERARCHICAL_AUTO_THRESHOLD
        )
        delta = DeltaStepCost(cost_model)
        placement = case.placement(rng)
        assignment = case.assignment(rng)
        delta.rebase(assignment, placement)
        for _ in range(case.rounds):
            if new_demand:
                assignment = case.assignment(rng)
            for action in self.actions(rng, placement):
                action.apply(placement)
            delta.rebase(assignment, placement)
            fresh = DeltaStepCost(cost_model)
            fresh.rebase(assignment, placement)
            self.assert_identical(delta, fresh, placement, assignment, rng)

    @staticmethod
    def actions(rng, placement: Placement) -> list:
        """One Shrink/Expand pair and one Migrate, or nothing at all."""
        kind = int(rng.integers(3))
        num_gpus = placement.num_gpus
        if kind == 0:
            return []
        if kind == 1:
            gpu = int(rng.integers(num_gpus))
            shrinkable = [
                e for e in placement.experts_on(gpu) if placement.replicas(e) > 1
            ]
            expand = int(rng.integers(placement.num_experts))
            shrinkable = [e for e in shrinkable if e != expand]
            if not shrinkable:
                return []
            source = placement.gpus_of(expand)[0]
            return [
                Shrink(expert=int(rng.choice(shrinkable)), gpu=gpu),
                Expand(expert=expand, gpu=gpu, source_gpu=source),
            ]
        gpu_a, gpu_b = (int(g) for g in rng.choice(num_gpus, 2, replace=False))
        expert_a = int(rng.choice(placement.experts_on(gpu_a)))
        partners = [e for e in placement.experts_on(gpu_b) if e != expert_a]
        if not partners:
            return []
        return [
            Migrate(
                expert_a=expert_a, gpu_a=gpu_a,
                expert_b=int(rng.choice(partners)), gpu_b=gpu_b,
            )
        ]

    @staticmethod
    def assert_identical(delta, fresh, placement, assignment, rng) -> None:
        assert delta._base_time == fresh._base_time
        for mine, theirs in zip(delta.holders, fresh.holders):
            assert np.array_equal(mine, theirs)
        assert np.array_equal(delta.expert_loads, fresh.expert_loads)
        assert np.array_equal(delta.expert_loads, assignment.sum(axis=1))
        loads = delta.expert_loads / placement.replica_counts()
        expand = int(np.argmax(loads))
        shrink = next(
            int(e)
            for e in np.argsort(loads, kind="stable")
            if e != expand and placement.replicas(int(e)) > 1
        )
        gpus = np.array(placement.gpus_of(shrink))
        assert np.array_equal(
            delta.pair_candidates(placement, expand, shrink, gpus).times(),
            fresh.pair_candidates(placement, expand, shrink, gpus).times(),
        )
        pairs = []
        for _ in range(16):
            ga, gb = rng.choice(placement.num_gpus, 2, replace=False)
            ea = int(rng.choice(placement.experts_on(int(ga))))
            partners = [e for e in placement.experts_on(int(gb)) if e != ea]
            if partners:
                pairs.append((ea, ga, int(rng.choice(partners)), gb))
        assert np.array_equal(
            delta.exchange_candidate_times(placement, pairs),
            fresh.exchange_candidate_times(placement, pairs),
        )


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
        delta = DeltaStepCost(cost_model)
        oracle_check(delta)
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
            times = delta.pair_candidates(placement, e0, e1, gpus).times()
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
            delta.pair_candidates(placement, 3, 3, np.array([0]))


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
                delta.pair_candidates(placement, e[0], s[0], g).times()
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
        assert batch.num_cands == g.size
        np.testing.assert_array_equal(
            batch.times(),
            delta.pair_candidates(
                placement, np.full(g.size, e0), np.full(g.size, e1), g
            ).times(),
        )
        assert delta.pair_candidates(placement, e0, e1, []).num_cands == 0

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
        delta = DeltaStepCost(case.cost_model())
        checked = oracle_check(delta)
        delta.rebase(case.assignment(rng), placement)
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
            batch.times(0, batch.num_cands + 1)
        with pytest.raises(SchedulingError):
            delta.pair_candidates(placement, [1, 2], [2, 2], [0, 1])
        delta.rebase(case.assignment(rng), placement)
        with pytest.raises(SchedulingError, match="rebase"):
            batch.times()


class TestProbeFreeBatch:
    """Without gradient sync a batch has no probe order to keep: its first
    :meth:`CandidateBatch.times` call finishes every candidate at once."""

    @staticmethod
    def inference_batch(name, rng):
        case = CASES[name]
        training = case.cost_model()
        cost_model = MoECostModel(
            training.profile, training.model, inference=True
        )
        assert cost_model.sync_bytes == 0
        _, placement, expand, shrink, gpus = TestPairCandidates.batch_inputs(
            case, rng
        )
        expand, shrink, gpus = map(np.concatenate, (expand, shrink, gpus))
        delta = DeltaStepCost(cost_model)
        delta.rebase(case.assignment(rng), placement)
        return delta, placement, (expand, shrink, gpus)

    @pytest.mark.parametrize("name", ["dense-8g", "sparse-256g"])
    def test_range_equals_the_slice_of_the_whole(self, name, rng):
        delta, placement, candidates = self.inference_batch(name, rng)
        whole = delta.pair_candidates(placement, *candidates).times()
        num = whole.size
        cuts = np.sort(rng.choice(np.arange(1, num), 3, replace=False))
        bounds = [0, *cuts.tolist(), num]
        for lo, hi in zip(bounds, bounds[1:]):
            # A fresh batch per range: its first call is this range.
            batch = delta.pair_candidates(placement, *candidates)
            np.testing.assert_array_equal(batch.times(lo, hi), whole[lo:hi])
            np.testing.assert_array_equal(
                delta._finish(batch, lo, hi), whole[lo:hi]
            )

    def test_first_call_counts_the_whole_batch(self, rng):
        delta, placement, candidates = self.inference_batch("dense-8g", rng)
        before = delta.evaluations
        batch = delta.pair_candidates(placement, *candidates)
        first = batch.times(2, 5)
        assert delta.evaluations == before + batch.num_cands
        first[:] = -1.0  # callers own what they get back
        np.testing.assert_array_equal(batch.times(2, 5), batch.times()[2:5])
        assert (batch.times(2, 5) >= 0).all()
        assert delta.evaluations == before + batch.num_cands

    def test_finished_batch_still_expires_on_rebase(self, rng):
        delta, placement, candidates = self.inference_batch("dense-8g", rng)
        batch = delta.pair_candidates(placement, *candidates)
        batch.times(0, 1)
        delta.rebase(CASES["dense-8g"].assignment(rng), placement)
        with pytest.raises(SchedulingError, match="rebase"):
            batch.times(1, 2)


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
        delta = DeltaStepCost(cost_model)
        oracle_check(delta)
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


class TestFallbacks:
    def test_foreign_placement_counts_a_fallback(self, cost_model, rng):
        delta = DeltaStepCost(cost_model)
        placement = Placement.balanced(8, 8, 4)
        other = Placement.balanced(8, 8, 4)
        assignment = rng.integers(0, 10_000, (8, 8))
        delta.rebase(assignment, placement)
        gpus = np.array(other.gpus_of(1))
        delta.pair_candidates(other, 0, 1, gpus).times()
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
        gpu = placement.gpus_of(e1)[0]
        stale_safe = delta.pair_candidates(placement, e0, e1, gpu).times()[0]
        trial = placement.copy()
        trial.remove_vexpert(e1, gpu)
        trial.add_vexpert(e0, gpu)
        reference = memo.step_time(assignment, trial)
        assert delta.fallbacks == 1
        assert stale_safe == pytest.approx(reference, rel=RTOL)

    def test_speed_aware_pricing_matches_reference(self, rng):
        state = ClusterState(8)
        state.set_speed(1, 0.5)
        state.fail(2)
        cost_model = build_cost_model(state=state)
        memo = MemoizedStepCost(cost_model)
        delta = DeltaStepCost(cost_model)
        oracle_check(delta)
        placement = Placement.balanced(8, 8, 4)
        assignment = rng.integers(0, 10_000, (8, 8))
        base = delta.rebase(assignment, placement)
        assert base == pytest.approx(
            memo.step_time(assignment, placement), rel=RTOL
        )


@pytest.mark.parametrize("search", ["flat", "hierarchical"])
def test_audited_planner_replay_in_the_sparse_regime(search, rng):
    """Policy Maker + Migrate on one evaluator at 256 devices.

    Every candidate either planner prices is cross-checked against the
    full-recompute oracle (:func:`oracle_check`), with the placement evolving as a live scheduler's
    would (packed copies and all).
    """
    case = CASES["packed-256g"]
    cost_model = case.cost_model()
    topology = ClusterTopology(case.cluster)
    audited = DeltaStepCost(cost_model)
    oracle_check(audited)
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


def _planner_replay(steps, audit: bool) -> list:
    """Policy Maker + Migrate on one evaluator at 64 experts x 256
    devices; returns every decision, base time and the final time."""
    case = Case(64, SPARSE_CLUSTER, slots=2, moves=0)
    cost_model = case.cost_model()
    topology = ClusterTopology(case.cluster)
    delta = DeltaStepCost(cost_model)
    if audit:
        oracle_check(delta)
    policy = PolicyMaker(cost_model, topology=topology, placement_search="auto")
    policy._delta = delta
    migration = MigrationPlanner(
        cost_model, topology, placement_search="auto", delta=delta
    )
    placement = Placement.balanced(case.num_experts, case.num_gpus, case.slots)
    record = []
    for assignment in steps:
        decision = policy.make_plan(assignment, placement)
        record.append((decision.actions, delta._base_time))
        for action in decision.actions:
            action.apply(placement)
        moves = migration.plan(assignment, placement)
        record.append((tuple(moves), delta._base_time))
        for move in moves:
            move.apply(placement)
    record.append(delta.rebase(steps[-1], placement))
    assert delta.fallbacks == 0
    return record


@pytest.mark.parametrize("audit", [False, True])
def test_frozen_and_writeable_demand_replay_identically(audit):
    """Kept by reference or snapshotted, the same demand drives the same
    decisions and prices them to the last bit."""
    trace = DriftingRoutingGenerator(
        64, 256,
        WorkloadConfig(tokens_per_step=256 * 4096, num_steps=3, skew=1.3, seed=5),
    ).generate()
    steps = [trace.step(t) for t in range(trace.num_steps)]
    kept = _planner_replay(steps, audit)
    copied = _planner_replay([step.copy() for step in steps], audit)
    assert kept == copied
    assert any(actions for actions, _ in kept[:-1])


def _rebase_peaks_at_4096_devices(dtype) -> tuple[int, int, int]:
    """Traced peak bytes of a new and of an unchanged frozen 512 x 4096
    demand's rebase, and the demand's own ``nbytes``."""
    model = MoEModelConfig(
        "delta-4096", num_layers=2, d_model=256, d_ffn=1024, num_experts=512
    )
    topology = ClusterTopology(cluster_for(4096))
    cost_model = MoECostModel(
        Profiler(topology, noise=0.0, seed=0).profile(model), model
    )
    placement = Placement.balanced(512, 4096, auto_slots_per_gpu(512, 4096))
    rng = np.random.default_rng(0)
    first, second = (
        frozen(rng.integers(0, 128, (512, 4096), dtype=dtype))
        for _ in range(2)
    )
    delta = DeltaStepCost(cost_model)
    delta.rebase(first, placement)

    def peak(assignment) -> int:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        delta.rebase(assignment, placement)
        return tracemalloc.get_traced_memory()[1] - held

    tracemalloc.start()
    try:
        new_demand = peak(second)
        same_demand = peak(second)
    finally:
        tracemalloc.stop()
    return new_demand, same_demand, second.nbytes


def test_rebase_peak_memory_at_4096_devices():
    """A new 512 x 4096 frozen demand is read without an E x G float copy,
    and an unchanged one without any E x G temporary."""
    new_demand, same_demand, nbytes = _rebase_peaks_at_4096_devices(np.int64)
    assert new_demand <= 0.5 * nbytes
    assert same_demand <= 0.1 * nbytes


def test_rebase_peak_memory_at_4096_devices_int32():
    """The same bounds against a trace step's own int32 size: the demand
    is read in int32, without an int64 or float copy of it."""
    new_demand, same_demand, nbytes = _rebase_peaks_at_4096_devices(np.int32)
    assert nbytes == 4 * 512 * 4096
    assert new_demand <= 0.5 * nbytes
    assert same_demand <= 0.1 * nbytes


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
    times = delta.pair_candidates(placement, e0, e1, gpus).times()
    for i, gpu in enumerate(gpus):
        trial = placement.copy()
        trial.remove_vexpert(e1, int(gpu))
        trial.add_vexpert(e0, int(gpu))
        full = EXACT_MEMO.step_time(assignment, trial)
        assert times[i] == pytest.approx(full, rel=RTOL)
