"""Int16 placement counts meet token quantities without wrapping.

Placements store vExpert counts as int16, and NumPy 2 keeps ``int16 *
int`` in int16 (NEP 50). Every product of counts with a token quantity
must widen first. These placements pack five of an expert's six
vExperts on one GPU, so ``count * ceil(total / replicas)`` passes the
int16 range at a per-expert total of 40,000, and at the trace bound
``2**31 - 1``.
"""

import numpy as np
import pytest

from repro.cluster.profiler import Profiler
from repro.cluster.topology import ClusterTopology
from repro.config import ClusterConfig, MoEModelConfig
from repro.core.cost_model import MoECostModel
from repro.core.delta import DeltaStepCost
from repro.core.placement import VEXPERT_DTYPE, Placement
from repro.core.router import (
    FlexibleTokenRouter,
    ReferenceTokenRouter,
    validate_conservation,
)

from routing_oracle import dense_routes

MODEL = MoEModelConfig("widen", num_layers=1, d_model=256, d_ffn=1024, num_experts=2)
CLUSTER = ClusterConfig(num_nodes=2, gpus_per_node=4)
TOTALS = [40_000, 2**31 - 1]


def packed_placement() -> Placement:
    counts = np.zeros((2, CLUSTER.num_gpus), dtype=np.int64)
    counts[0, :2] = [5, 1]
    counts[1, :4] = [1, 1, 2, 2]
    placement = Placement(counts, 6)
    assert placement.counts_view.dtype == VEXPERT_DTYPE
    return placement


def demand(total: int) -> np.ndarray:
    """Every expert's ``total`` tokens, sent mostly from GPUs that hold
    few of its vExperts."""
    assignment = np.zeros((2, CLUSTER.num_gpus), dtype=np.int64)
    share = total // 4
    assignment[:, 4:8] = share
    assignment[:, 4] += total - 4 * share
    return assignment


def ceil_capacity(total: int, placement: Placement) -> np.ndarray:
    replicas = placement.replica_counts()
    return -(-total // replicas)


@pytest.fixture(params=TOTALS, ids=["40000", "2**31-1"])
def total(request) -> int:
    cap = int(ceil_capacity(request.param, packed_placement())[0])
    assert 5 * cap > np.iinfo(VEXPERT_DTYPE).max
    return request.param


@pytest.mark.parametrize(
    "router", [ReferenceTokenRouter(), FlexibleTokenRouter()],
    ids=["reference", "vectorized"],
)
def test_integer_routers_conserve_and_cap(router, total):
    placement = packed_placement()
    assignment = demand(total)
    plan = router.route(assignment, placement)
    validate_conservation(assignment, plan)
    capacities = ceil_capacity(total, placement)
    assert plan.capacities.tolist() == capacities.tolist()
    arrivals = dense_routes(plan).sum(axis=1)
    cap_matrix = placement.counts.astype(np.int64) * capacities[:, None]
    assert (arrivals <= cap_matrix).all()
    assert plan.flow.sum() == 2 * total


def test_routers_agree_on_local_and_locality(total):
    placement = packed_placement()
    assignment = demand(total)
    reference = ReferenceTokenRouter().route(assignment, placement)
    vectorized = FlexibleTokenRouter().route(assignment, placement)
    assert np.array_equal(reference.local, vectorized.local)
    assert reference.locality_fraction == vectorized.locality_fraction


def test_fractional_route_conserves_and_caps(total):
    placement = packed_placement()
    assignment = demand(total)
    plan = FlexibleTokenRouter().route_fractional(assignment, placement)
    per_replica = total / placement.replica_counts()
    np.testing.assert_array_equal(plan.capacities, per_replica)
    routed = dense_routes(plan)
    np.testing.assert_allclose(routed.sum(axis=2), assignment, rtol=1e-12)
    capacity = placement.counts * per_replica[:, None]
    assert (routed.sum(axis=1) <= capacity * (1 + 1e-12)).all()


def test_delta_rebase_conserves_and_caps(total):
    placement = packed_placement()
    assignment = demand(total)
    topology = ClusterTopology(CLUSTER)
    profile = Profiler(topology, noise=0.02, seed=0).profile(MODEL)
    cost_model = MoECostModel(profile, MODEL)
    delta = DeltaStepCost(cost_model)
    time = delta.rebase(assignment, placement)
    assert delta.expert_loads.tolist() == [total, total]
    holders = delta.holders
    assert np.array_equal(
        holders.count, placement.counts_view[holders.expert, holders.gpu]
    )
    arrived = np.bincount(holders.expert, weights=delta._arrivals)
    np.testing.assert_allclose(arrived, [total, total], rtol=1e-12)
    per_replica = total / placement.replica_counts()
    assert (
        delta._arrivals
        <= holders.count * per_replica[holders.expert] * (1 + 1e-12)
    ).all()
    oracle = cost_model.step_time(
        FlexibleTokenRouter().route_fractional(assignment, placement), placement
    )
    assert time == pytest.approx(oracle, rel=1e-9)
