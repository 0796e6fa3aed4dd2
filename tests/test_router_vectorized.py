"""Vectorized router vs the seed reference implementation.

The two may place individual spill tokens on different replicas — both
orders are valid under the capacity contract — so the agreement tests
check the routing *contract* (conservation, capacities, locality, replica
membership) plus the aggregate quantities that feed the cost models.
"""

import numpy as np
import pytest

from repro.core.placement import Placement
from repro.core.router import (
    FlexibleTokenRouter,
    ReferenceTokenRouter,
    validate_conservation,
)

from routing_oracle import dense_routes


def random_cases(rng, count=25):
    for _ in range(count):
        num_gpus = int(rng.integers(1, 9))
        slots = int(rng.integers(1, 4))
        num_experts = int(rng.integers(1, min(12, num_gpus * slots) + 1))
        placement = Placement.balanced(num_experts, num_gpus, slots)
        assignment = rng.integers(0, 5000, (num_experts, num_gpus))
        yield assignment, placement


class TestAgreementWithReference:
    def test_contract_matches(self, rng):
        fast = FlexibleTokenRouter()
        ref = ReferenceTokenRouter()
        for assignment, placement in random_cases(rng):
            fast_plan = fast.route(assignment, placement)
            ref_plan = ref.route(assignment, placement)
            validate_conservation(assignment, fast_plan)
            np.testing.assert_array_equal(
                fast_plan.capacities, ref_plan.capacities
            )
            counts = placement.counts
            caps = counts * fast_plan.capacities[:, None]
            assert (fast_plan.arrivals <= caps).all()
            assert (fast_plan.arrivals[counts == 0] == 0).all()

    def test_local_routing_identical(self, rng):
        # Locality-first is deterministic: the diagonal (tokens that never
        # left their source) must match the reference exactly.
        fast = FlexibleTokenRouter()
        ref = ReferenceTokenRouter()
        diag_checked = 0
        for assignment, placement in random_cases(rng):
            fast_routes = dense_routes(fast.route(assignment, placement))
            ref_routes = dense_routes(ref.route(assignment, placement))
            num_gpus = placement.num_gpus
            idx = np.arange(num_gpus)
            np.testing.assert_array_equal(
                fast_routes[:, idx, idx], ref_routes[:, idx, idx]
            )
            diag_checked += 1
        assert diag_checked > 0

    def test_locality_fraction_identical(self, rng):
        fast = FlexibleTokenRouter()
        ref = ReferenceTokenRouter()
        for assignment, placement in random_cases(rng, count=10):
            assert fast.route(assignment, placement).locality_fraction == (
                ref.route(assignment, placement).locality_fraction
            )

    def test_reference_passes_conservation(self, rng):
        ref = ReferenceTokenRouter()
        for assignment, placement in random_cases(rng, count=10):
            validate_conservation(assignment, ref.route(assignment, placement))


class TestBatchedSpillScatter:
    def test_heavy_spill_single_destination(self):
        # Everything must spill from GPU 1 to GPU 0.
        counts = np.array([[1, 0]], dtype=np.int64)
        placement = Placement(counts, 1)
        assignment = np.array([[0, 77]])
        plan = FlexibleTokenRouter().route(assignment, placement)
        assert dense_routes(plan)[0, 1, 0] == 77

    def test_spill_spread_is_proportional_within_one(self):
        # 3 destinations with capacity 2:1:1 of the remainder.
        counts = np.array([[2, 1, 1, 0]], dtype=np.int64)
        placement = Placement(counts, 2)
        assignment = np.array([[0, 0, 0, 100]])
        plan = FlexibleTokenRouter().route(assignment, placement)
        cap = plan.capacities[0]
        spread = dense_routes(plan)[0, 3]
        assert spread.sum() == 100
        # Proportional target is (2, 1, 1)/4 of 100 capped by capacity.
        assert spread[0] >= spread[1] >= 0
        assert (plan.arrivals[0] <= cap * counts[0]).all()

    def test_many_experts_spilling_at_once(self, rng):
        placement = Placement.balanced(32, 8, 8)
        # Concentrate every expert's tokens on one GPU to force spill.
        assignment = np.zeros((32, 8), dtype=np.int64)
        assignment[:, 0] = rng.integers(1000, 9000, 32)
        plan = FlexibleTokenRouter().route(assignment, placement)
        validate_conservation(assignment, plan)
        caps = placement.counts * plan.capacities[:, None]
        assert (plan.arrivals <= caps).all()


class TestFractionalBatched:
    def test_matches_manual_per_expert_computation(self, rng):
        router = FlexibleTokenRouter()
        for assignment, placement in random_cases(rng, count=10):
            routes = dense_routes(
                router.route_fractional(assignment.astype(float), placement)
            )
            counts = placement.counts
            for e in range(placement.num_experts):
                total = assignment[e].sum()
                if total == 0:
                    assert routes[e].sum() == 0
                    continue
                capacity = counts[e] * (total / counts[e].sum())
                local = np.minimum(assignment[e], capacity)
                spill = assignment[e] - local
                avail = capacity - local
                expected = np.zeros_like(routes[e])
                np.fill_diagonal(expected, local)
                if spill.sum() > 0:
                    expected += np.outer(spill, avail / avail.sum())
                np.testing.assert_allclose(routes[e], expected, atol=1e-9)
