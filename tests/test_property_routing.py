"""Property-based tests: routing and placement invariants.

These encode the invariants DESIGN.md commits to:

* routing conservation (100% token efficiency of the router);
* per-vExpert capacity bounds;
* placement validity under arbitrary action sequences;
* slot conservation under paired Expand/Shrink.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.placement import Placement
from repro.core.router import (
    FlexibleTokenRouter,
    ReferenceTokenRouter,
    validate_conservation,
)
from repro.exceptions import PlacementError

from routing_oracle import dense_routes


def placements(max_experts=12, max_gpus=8, max_slots=3):
    """Strategy producing valid random placements."""

    @st.composite
    def build(draw):
        num_gpus = draw(st.integers(1, max_gpus))
        max_e = num_gpus * max_slots
        num_experts = draw(st.integers(1, min(max_experts, max_e)))
        slots = draw(st.integers(
            max(1, -(-num_experts // num_gpus)), max_slots
        ))
        placement = Placement.balanced(num_experts, num_gpus, slots)
        # Random mutation walk to diversify beyond the balanced layout.
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        for _ in range(draw(st.integers(0, 10))):
            kind = rng.integers(0, 2)
            try:
                if kind == 0:
                    e = int(rng.integers(0, num_experts))
                    gpus = placement.gpus_of(e)
                    src = int(rng.choice(gpus))
                    dst = int(rng.integers(0, num_gpus))
                    if dst != src and placement.free_slots(dst) > 0:
                        placement.add_vexpert(e, dst)
                        placement.remove_vexpert(e, src)
                else:
                    e = int(rng.integers(0, num_experts))
                    victim = int(rng.integers(0, num_experts))
                    if victim != e:
                        v_gpus = placement.gpus_of(victim)
                        g = int(rng.choice(v_gpus))
                        placement.remove_vexpert(victim, g)
                        placement.add_vexpert(e, g)
            except PlacementError:
                continue
        return placement

    return build()


def assignments_for(placement, max_tokens=5000):
    return st.lists(
        st.integers(0, max_tokens),
        min_size=placement.num_experts * placement.num_gpus,
        max_size=placement.num_experts * placement.num_gpus,
    ).map(
        lambda flat: np.array(flat, dtype=np.int64).reshape(
            placement.num_experts, placement.num_gpus
        )
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_router_conserves_every_token(data):
    placement = data.draw(placements())
    assignment = data.draw(assignments_for(placement))
    plan = FlexibleTokenRouter().route(assignment, placement)
    validate_conservation(assignment, plan)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_router_respects_vexpert_capacity(data):
    placement = data.draw(placements())
    assignment = data.draw(assignments_for(placement))
    plan = FlexibleTokenRouter().route(assignment, placement)
    counts = placement.counts
    arrivals = plan.arrivals
    for e in range(placement.num_experts):
        cap = plan.capacities[e]
        if cap == 0:
            continue
        assert (arrivals[e] <= cap * counts[e]).all()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_router_never_routes_to_gpu_without_replica(data):
    placement = data.draw(placements())
    assignment = data.draw(assignments_for(placement))
    plan = FlexibleTokenRouter().route(assignment, placement)
    counts = placement.counts
    arrivals = plan.arrivals
    assert (arrivals[counts == 0] == 0).all()


@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    slots=st.integers(1, 3),
    moves=st.integers(0, 400),
)
def test_router_contract_matches_reference_at_1024_devices(seed, slots, moves):
    """Conservation, per-vExpert capacity and locality-first at datacenter
    width, against the greedy reference router."""
    num_experts, num_gpus = 16, 1024
    rng = np.random.default_rng(seed)
    placement = Placement.balanced(num_experts, num_gpus, slots)
    # Hand random replicas to one hot expert so replica counts, and so
    # the holders' slack, differ across experts.
    hot = int(rng.integers(0, num_experts))
    for _ in range(moves):
        victim = int(rng.integers(0, num_experts))
        if victim != hot and placement.replicas(victim) > 1:
            gpu = int(rng.choice(placement.gpus_of(victim)))
            placement.remove_vexpert(victim, gpu)
            placement.add_vexpert(hot, gpu)
    popularity = rng.zipf(1.5, num_experts).clip(max=50)[:, None]
    assignment = rng.integers(0, 40, (num_experts, num_gpus)) * popularity
    plan = FlexibleTokenRouter().route(assignment, placement)
    ref = ReferenceTokenRouter().route(assignment, placement)
    for routed in (plan, ref):
        validate_conservation(assignment, routed)
    np.testing.assert_array_equal(plan.capacities, ref.capacities)
    # Locality first is deterministic: the kept tokens match exactly.
    np.testing.assert_array_equal(plan.local, ref.local)
    assert plan.locality_fraction == ref.locality_fraction
    counts = placement.counts
    assert (plan.arrivals <= counts * plan.capacities[:, None]).all()
    assert (plan.arrivals[counts == 0] == 0).all()
    assert plan.flow.sum() == assignment.sum()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fractional_routing_conserves_and_bounds(data):
    placement = data.draw(placements())
    assignment = data.draw(assignments_for(placement))
    routes = dense_routes(
        FlexibleTokenRouter().route_fractional(assignment, placement)
    )
    assert np.allclose(routes.sum(axis=2), assignment)
    assert (routes >= -1e-9).all()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_placement_walk_preserves_invariants(data):
    placement = data.draw(placements())
    placement.validate()
    per_expert = placement.replica_counts()
    assert (per_expert >= 1).all()
    total = placement.counts.sum()
    assert total <= placement.total_slots
