"""Hierarchical two-level placement search vs the flat reference.

The datacenter-scale sweep (``python -m repro scale``) relies on two
contracts the tests here pin down at unit scale:

* At small clusters the hierarchical mode must be a drop-in for the flat
  sweep: identical decisions, or a final modelled step time within the
  bench suite's quality epsilon.
* Escalation is a *superset* search: the intra-node phase's best
  candidate is carried into the cross-cluster sweep as the bar, so the
  returned move can never be worse than any intra-node candidate — the
  short-circuit can only ever skip work, not skip quality.

The node-blocked :class:`~repro.cluster.bandwidth.BandwidthModel` that
makes the hierarchical sweep O(G) per row is covered here too: every
query of the implicit three-class representation must agree with the
explicit dense matrix it replaces.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.bandwidth import BandwidthModel
from repro.cluster.profiler import Profiler
from repro.cluster.topology import ClusterTopology
from repro.config import (
    ClusterConfig,
    HIERARCHICAL_AUTO_THRESHOLD,
    MoEModelConfig,
    SchedulerConfig,
    WorkloadConfig,
    auto_slots_per_gpu,
    resolve_placement_search,
)
from repro.core.cost_model import MoECostModel
from repro.core.delta import HolderIndex
from repro.core.migration import MigrationPlanner
from repro.core.placement import Placement
from repro.core.policy import PolicyMaker
from repro.core.primitives import Migrate
from repro.exceptions import ConfigurationError, SchedulingError
from repro.workload.synthetic import DriftingRoutingGenerator

QUALITY_RTOL = 0.05


def _replay(cost_model, topology, trace, slots, placement_search):
    """Mirror of the scale bench's planner replay: policy + migrate per
    step, decisions applied, final configuration priced via the delta
    evaluator."""
    num_experts = cost_model.model.num_experts
    policy = PolicyMaker(
        cost_model,
        use_delta=True,
        topology=topology,
        placement_search=placement_search,
    )
    migration = MigrationPlanner(
        cost_model,
        topology,
        use_delta=True,
        memo=policy.memo,
        placement_search=placement_search,
        delta=policy.delta,
    )
    placement = Placement.balanced(num_experts, topology.num_gpus, slots)
    decisions = []
    for step in range(trace.num_steps):
        assignment = trace.step(step)
        decision = policy.make_plan(assignment, placement)
        for action in decision.actions:
            action.apply(placement)
        moves = migration.plan(assignment, placement)
        for move in moves:
            move.apply(placement)
        decisions.append((decision.actions, tuple(moves)))
    final = float(
        policy.delta.rebase(trace.step(trace.num_steps - 1), placement)
    )
    return decisions, final, int(policy.delta.fallbacks)


class TestSmallScaleEquivalence:
    """At <= 64 devices hierarchical must be a drop-in for flat."""

    @pytest.mark.parametrize("num_nodes,gpus_per_node", [(2, 4), (4, 8)])
    def test_decisions_match_or_quality_within_epsilon(
        self, num_nodes, gpus_per_node
    ):
        num_gpus = num_nodes * gpus_per_node
        num_experts = 2 * num_gpus
        topology = ClusterTopology(
            ClusterConfig(num_nodes=num_nodes, gpus_per_node=gpus_per_node)
        )
        model = MoEModelConfig(
            name=f"hier-{num_gpus}g",
            num_layers=2,
            d_model=512,
            d_ffn=2048,
            num_experts=num_experts,
        )
        profile = Profiler(topology, noise=0.02, seed=0).profile(model)
        cost_model = MoECostModel(profile, model)
        trace = DriftingRoutingGenerator(
            num_experts,
            num_gpus,
            WorkloadConfig(
                tokens_per_step=4096 * num_gpus,
                num_steps=6,
                skew=1.3,
                seed=0,
            ),
        ).generate()
        slots = auto_slots_per_gpu(num_experts, num_gpus)
        flat, flat_time, flat_fb = _replay(
            cost_model, topology, trace, slots, "flat"
        )
        hier, hier_time, hier_fb = _replay(
            cost_model, topology, trace, slots, "hierarchical"
        )
        assert flat_fb == 0 and hier_fb == 0
        assert flat == hier or hier_time <= flat_time * (1.0 + QUALITY_RTOL)

    def test_auto_resolution_respects_threshold(self):
        assert resolve_placement_search(HIERARCHICAL_AUTO_THRESHOLD) == "flat"
        assert (
            resolve_placement_search(HIERARCHICAL_AUTO_THRESHOLD + 1)
            == "hierarchical"
        )
        assert resolve_placement_search(4096, "flat") == "flat"
        assert resolve_placement_search(8, "hierarchical") == "hierarchical"


class TestPlacementSearchValidation:
    """An explicit hierarchical search never silently runs flat."""

    @pytest.fixture(scope="class")
    def setup(self):
        topology = ClusterTopology(
            ClusterConfig(num_nodes=10, gpus_per_node=8)
        )
        model = MoEModelConfig(
            name="hier-validate",
            num_layers=2,
            d_model=256,
            d_ffn=1024,
            num_experts=16,
        )
        profile = Profiler(topology, noise=0.0, seed=0).profile(model)
        return MoECostModel(profile, model), topology

    def test_policy_rejects_hierarchical_without_delta(self, setup):
        cost_model, topology = setup
        with pytest.raises(SchedulingError, match="hierarchical"):
            PolicyMaker(
                cost_model,
                use_delta=False,
                topology=topology,
                placement_search="hierarchical",
            )

    def test_policy_rejects_hierarchical_without_topology(self, setup):
        cost_model, _ = setup
        with pytest.raises(SchedulingError, match="hierarchical"):
            PolicyMaker(cost_model, placement_search="hierarchical")

    def test_migration_rejects_hierarchical_without_delta(self, setup):
        cost_model, topology = setup
        with pytest.raises(SchedulingError, match="hierarchical"):
            MigrationPlanner(
                cost_model,
                topology,
                use_delta=False,
                placement_search="hierarchical",
            )

    def test_unknown_search_rejected(self, setup):
        cost_model, topology = setup
        with pytest.raises(SchedulingError):
            PolicyMaker(cost_model, placement_search="greedy")
        with pytest.raises(ConfigurationError):
            MigrationPlanner(cost_model, topology, placement_search="greedy")
        with pytest.raises(ConfigurationError):
            SchedulerConfig(placement_search="greedy")

    def test_auto_falls_back_to_flat_quietly(self, setup):
        """Above the threshold ``auto`` resolves to hierarchical, and runs
        flat wherever hierarchical cannot."""
        cost_model, topology = setup
        assert topology.num_gpus > HIERARCHICAL_AUTO_THRESHOLD
        assert PolicyMaker(
            cost_model, topology=topology, placement_search="auto"
        )._hierarchical
        for policy in (
            PolicyMaker(cost_model, placement_search="auto"),
            PolicyMaker(
                cost_model,
                use_delta=False,
                topology=topology,
                placement_search="auto",
            ),
        ):
            assert not policy._hierarchical
        assert not MigrationPlanner(
            cost_model, topology, use_delta=False, placement_search="auto"
        )._hierarchical


def _perturbed_placement(rng, num_experts, num_gpus, slots):
    """A legal placement a few random exchanges away from balanced."""
    placement = Placement.balanced(num_experts, num_gpus, slots)
    for _ in range(rng.integers(0, 6)):
        counts = placement.counts_view
        src, dst = rng.choice(num_gpus, size=2, replace=False)
        on_src = np.flatnonzero(counts[:, src])
        on_dst = np.flatnonzero(counts[:, dst])
        expert = int(rng.choice(on_src))
        partner = int(rng.choice(on_dst))
        if expert == partner:
            continue
        Migrate(
            expert_a=expert, gpu_a=int(src), expert_b=partner, gpu_b=int(dst)
        ).apply(placement)
    return placement


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_escalation_never_skips_viable_intra_candidate(seed):
    """The returned move is never worse than ANY intra-node candidate.

    The intra-node phase's best is carried into the cross-cluster sweep
    as the bar, so whatever ``_best_move`` returns must price at or below
    the full intra-node pool's minimum; and when it returns ``None``, no
    intra-node candidate can improve on the baseline.
    """
    rng = np.random.default_rng(seed)
    num_experts, num_gpus, slots = 8, 8, 2
    topology = ClusterTopology(ClusterConfig(num_nodes=2, gpus_per_node=4))
    model = MoEModelConfig(
        name="hier-prop",
        num_layers=2,
        d_model=256,
        d_ffn=1024,
        num_experts=num_experts,
    )
    profile = Profiler(topology, noise=0.0, seed=0).profile(model)
    cost_model = MoECostModel(profile, model)
    planner = MigrationPlanner(
        cost_model, topology, use_delta=True,
        placement_search="hierarchical",
    )
    placement = _perturbed_placement(rng, num_experts, num_gpus, slots)
    assignment = rng.integers(
        0, 5000, size=(num_experts, num_gpus)
    ).astype(np.int64)

    baseline = planner._delta.rebase(assignment, placement)
    index = planner._delta.holders
    per_replica = planner._per_replica_loads(assignment, index)
    gpu_loads = planner._weighted_gpu_loads(
        per_replica, HolderIndex.of(placement.counts_view)
    )
    sources = planner._candidate_sources(
        per_replica, placement, gpu_loads, index
    )
    intra_pool = planner._expand_exchanges(
        placement,
        [
            (
                expert,
                src,
                planner._node_targets(placement, gpu_loads, expert, src),
            )
            for expert, src in sources
        ],
        index,
    )
    best_intra = float("inf")
    if len(intra_pool):
        best_intra = float(
            planner._delta.exchange_candidate_times(placement, intra_pool).min()
        )

    move = planner._best_move(assignment, placement)
    if move is None:
        assert best_intra >= baseline - 1e-12
    else:
        pair = np.array(
            [[move.expert_a, move.gpu_a, move.expert_b, move.gpu_b]]
        )
        move_time = float(
            planner._delta.exchange_candidate_times(placement, pair)[0]
        )
        assert move_time <= best_intra + 1e-9
        assert move_time <= baseline - 1e-12


class TestBandwidthModelEquivalence:
    """The implicit three-class model must agree with its dense view."""

    @pytest.fixture
    def blocked(self) -> BandwidthModel:
        return BandwidthModel.blocked(
            num_nodes=3, gpus_per_node=4,
            local=400e9, intra=150e9, inter=25e9,
        )

    @pytest.fixture
    def dense(self, blocked: BandwidthModel) -> BandwidthModel:
        return BandwidthModel.from_dense(blocked.dense())

    def test_links_match_everywhere(self, blocked, dense):
        for src in range(blocked.num_gpus):
            for dst in range(blocked.num_gpus):
                assert blocked.link(src, dst) == dense.link(src, dst)

    def test_submatrix_matches(self, blocked, dense):
        rng = np.random.default_rng(0)
        rows = rng.choice(blocked.num_gpus, size=5, replace=False)
        cols = rng.choice(blocked.num_gpus, size=7, replace=True)
        np.testing.assert_array_equal(
            blocked.submatrix(rows, cols), dense.submatrix(rows, cols)
        )

    def test_inv_diag_matches(self, blocked, dense):
        np.testing.assert_allclose(
            blocked.inv_diag(), dense.inv_diag(), rtol=1e-15
        )

    def test_inflow_at_matches(self, blocked, dense):
        """The blocked O(entries) destination inflow equals the dense
        column-of-the-inverse answer, and both equal the definition."""
        rng = np.random.default_rng(1)
        num_gpus = blocked.num_gpus
        sources = rng.integers(0, 10_000, size=(4, num_gpus)).astype(float)
        # Three segments over two source rows; holders are distinct within
        # a segment, and each keeps part of its own row's tokens.
        segments, rows, devices = [], [], []
        for segment, row, size in ((0, 2, 5), (1, 0, 1), (2, 2, 7)):
            holders = rng.choice(num_gpus, size=size, replace=False)
            segments += [segment] * size
            rows += [row] * size
            devices += list(holders)
        segments, rows, devices = map(np.array, (segments, rows, devices))
        kept = sources[rows, devices] * rng.uniform(0.0, 1.0, devices.size)
        got_blocked = blocked.inflow_at(
            blocked.source_rows(sources), rows, segments, devices, kept
        )
        got_dense = dense.inflow_at(
            dense.source_rows(sources), rows, segments, devices, kept
        )
        np.testing.assert_allclose(got_blocked, got_dense, rtol=1e-12)
        bw = blocked.dense()
        for k in range(devices.size):
            spill = sources[rows[k]].copy()
            mine = segments == segments[k]
            spill[devices[mine]] -= kept[mine]
            others = np.arange(num_gpus) != devices[k]
            expected = (spill[others] / bw[others, devices[k]]).sum()
            assert got_blocked[k] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("kind", ["blocked", "dense"])
    def test_int32_rows_read_exactly_as_their_int64_copy(
        self, blocked, dense, kind
    ):
        """Int32 rows (a trace step) are read in int32 without a copy,
        with node sums up to 2**31 - 1 and totals past 2**31, and price
        like their int64 copy bit for bit."""
        model = blocked if kind == "blocked" else dense
        rng = np.random.default_rng(3)
        per_node = (2**31 - 1) // 4
        ints = rng.integers(per_node - 8, per_node, size=(6, model.num_gpus))
        narrow = ints.astype(np.int32)
        exact = model.source_rows(narrow)
        wide = model.source_rows(ints)
        assert exact.matrix is narrow
        assert exact.totals.max() >= 2**31
        assert np.array_equal(exact.totals, wide.totals)
        if kind == "blocked":
            assert exact.node_sums.dtype == np.int32
            assert np.array_equal(exact.node_sums, wide.node_sums)
        rows = np.array([1, 1, 1, 4, 4])
        segments = np.array([0, 0, 0, 1, 1])
        devices = np.array([0, 5, 9, 2, 11])
        kept = ints[rows, devices] * 0.25
        assert np.array_equal(
            model.inflow_at(exact, rows, segments, devices, kept),
            model.inflow_at(wide, rows, segments, devices, kept),
        )

    @pytest.mark.parametrize("kind", ["blocked", "dense"])
    def test_integer_rows_read_exactly_as_their_float_copy(
        self, blocked, dense, kind
    ):
        """Int64 source rows are kept as they are, not copied to float;
        their node sums stay int64, and their totals, node sums and
        inflows equal the float copy's bit for bit."""
        model = blocked if kind == "blocked" else dense
        rng = np.random.default_rng(2)
        ints = rng.integers(0, 2**40, size=(6, model.num_gpus))
        exact = model.source_rows(ints)
        floats = model.source_rows(ints.astype(float))
        assert exact.matrix is ints
        assert exact.totals.dtype == floats.totals.dtype == np.float64
        assert np.array_equal(exact.totals, floats.totals)
        if kind == "blocked":
            assert exact.node_sums.dtype == np.int64
            assert np.array_equal(exact.node_sums, floats.node_sums)
        else:
            assert exact.node_sums is floats.node_sums is None
        rows = np.array([1, 1, 1, 4, 4])
        segments = np.array([0, 0, 0, 1, 1])
        devices = np.array([0, 5, 9, 2, 11])
        kept = ints[rows, devices] * 0.25
        assert np.array_equal(
            model.inflow_at(exact, rows, segments, devices, kept),
            model.inflow_at(floats, rows, segments, devices, kept),
        )
