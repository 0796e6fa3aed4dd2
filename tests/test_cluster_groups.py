"""Unit tests for communicator-group management (LRU cache, ordering)."""

import pytest

from repro.cluster.groups import (
    CommunicatorGroupCache,
    assert_deadlock_free,
    make_group_key,
    ordered_allreduce_schedule,
)
from repro.exceptions import SimulationError


class TestGroupKey:
    def test_sorted_and_deduped(self):
        assert make_group_key([3, 1, 3, 2]) == (1, 2, 3)


class TestCommunicatorGroupCache:
    def test_miss_then_hit(self):
        cache = CommunicatorGroupCache(capacity=4, creation_cost=0.1)
        assert cache.acquire([0, 1]) == 0.1
        assert cache.acquire([1, 0]) == 0.0
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_eviction_of_least_recent(self):
        cache = CommunicatorGroupCache(capacity=2, creation_cost=1.0)
        cache.acquire([0, 1])
        cache.acquire([0, 2])
        cache.acquire([0, 1])  # touch: (0,2) is now LRU
        cache.acquire([0, 3])  # evicts (0,2)
        assert cache.stats.evictions == 1
        assert cache.acquire([0, 1]) == 0.0  # still cached
        assert cache.acquire([0, 2]) == 1.0  # re-created

    def test_rejects_empty_group(self):
        cache = CommunicatorGroupCache()
        with pytest.raises(SimulationError):
            cache.acquire([])

    def test_rejects_bad_capacity(self):
        with pytest.raises(SimulationError):
            CommunicatorGroupCache(capacity=0)


class TestAllReduceOrdering:
    def test_singleton_groups_skipped(self):
        schedules = ordered_allreduce_schedule({0: [3], 1: [1, 2]})
        assert set(schedules) == {1, 2}

    def test_ordered_by_expert_id(self):
        schedules = ordered_allreduce_schedule(
            {5: [0, 1], 2: [1, 2], 9: [0, 2]}
        )
        rank1_experts = [launch.expert for launch in schedules[1]]
        assert rank1_experts == sorted(rank1_experts)

    def test_schedule_is_deadlock_free(self):
        schedules = ordered_allreduce_schedule(
            {e: [e % 3, (e + 1) % 3, 3] for e in range(6)}
        )
        assert_deadlock_free(schedules)

    def test_detects_inverted_order(self):
        from repro.cluster.groups import AllReduceLaunch

        a = AllReduceLaunch(expert=0, group=(0, 1))
        b = AllReduceLaunch(expert=1, group=(0, 1, 2))
        bad = {0: (a, b), 1: (b, a)}
        with pytest.raises(SimulationError):
            assert_deadlock_free(bad)
