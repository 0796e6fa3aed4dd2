"""Communicator-group management (Section 4 of the paper).

Real FlexMoE maintains NCCL communicators for the dynamic replica groups
created by Expand/Shrink/Migrate. Because NCCL caps the number of live
communicators and creating one is expensive, the paper keeps them in an LRU
cache. Because the set of groups differs per expert, every rank must launch
the per-expert AllReduces in the same order or the collectives deadlock; the
paper orders launches by the experts' logical ids.

This module reproduces both mechanisms so the simulator can account for
group-creation overheads and assert deadlock freedom.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.exceptions import SimulationError

#: A communicator group is identified by its sorted member ranks.
GroupKey = tuple[int, ...]


def make_group_key(ranks: Iterable[int]) -> GroupKey:
    """Canonical (sorted, dedup'd) key for a communicator group."""
    return tuple(sorted(set(ranks)))


@dataclass
class GroupCacheStats:
    """Counters exposed by :class:`CommunicatorGroupCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class CommunicatorGroupCache:
    """LRU cache of live communicator groups.

    Args:
        capacity: Maximum number of simultaneously live groups (NCCL's
            practical communicator limit on the paper's testbed).
        creation_cost: Simulated seconds to construct a new communicator;
            charged on every miss and surfaced to the cost accounting.
    """

    def __init__(self, capacity: int = 64, creation_cost: float = 50e-3) -> None:
        if capacity < 1:
            raise SimulationError(f"group cache capacity must be >= 1, got {capacity}")
        if creation_cost < 0:
            raise SimulationError("creation_cost must be >= 0")
        self._capacity = capacity
        self._creation_cost = creation_cost
        self._groups: OrderedDict[GroupKey, None] = OrderedDict()
        self._stats = GroupCacheStats()

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def stats(self) -> GroupCacheStats:
        return self._stats

    def __len__(self) -> int:
        return len(self._groups)

    def __contains__(self, ranks: Iterable[int]) -> bool:
        return make_group_key(ranks) in self._groups

    def acquire(self, ranks: Iterable[int]) -> float:
        """Touch the group for ``ranks``, creating it if absent.

        Returns:
            The simulated overhead in seconds (0 on a cache hit, the
            communicator creation cost on a miss).
        """
        key = make_group_key(ranks)
        if not key:
            raise SimulationError("communicator group must be non-empty")
        if key in self._groups:
            self._groups.move_to_end(key)
            self._stats.hits += 1
            return 0.0
        self._stats.misses += 1
        self._groups[key] = None
        if len(self._groups) > self._capacity:
            self._groups.popitem(last=False)
            self._stats.evictions += 1
        return self._creation_cost


@dataclass(frozen=True)
class AllReduceLaunch:
    """One AllReduce launch in a rank's schedule."""

    expert: int
    group: GroupKey


def ordered_allreduce_schedule(
    replica_groups: Mapping[int, Sequence[int]],
) -> dict[int, tuple[AllReduceLaunch, ...]]:
    """Build per-rank AllReduce launch schedules ordered by logical expert id.

    Args:
        replica_groups: Maps expert id -> ranks holding a replica of that
            expert. Experts with a single replica need no synchronization and
            are skipped.

    Returns:
        Maps rank -> tuple of launches, in the exact order the rank must
        issue them. Ordering by the expert's logical id guarantees that any
        two ranks sharing two or more groups issue them in the same relative
        order, which is the paper's deadlock-avoidance rule.
    """
    schedules: dict[int, list[AllReduceLaunch]] = {}
    for expert in sorted(replica_groups):
        group = make_group_key(replica_groups[expert])
        if len(group) <= 1:
            continue
        launch = AllReduceLaunch(expert=expert, group=group)
        for rank in group:
            schedules.setdefault(rank, []).append(launch)
    return {rank: tuple(launches) for rank, launches in schedules.items()}


def assert_deadlock_free(
    schedules: Mapping[int, Sequence[AllReduceLaunch]],
) -> None:
    """Verify that no pair of ranks issues shared collectives out of order.

    Two ranks deadlock if they both participate in collectives A and B but
    launch them in opposite orders. Raises :class:`SimulationError` when such
    an inversion exists.
    """
    positions: dict[int, dict[GroupKey, int]] = {
        rank: {launch.group: i for i, launch in enumerate(launches)}
        for rank, launches in schedules.items()
    }
    ranks = sorted(positions)
    for i, rank_a in enumerate(ranks):
        for rank_b in ranks[i + 1 :]:
            shared = set(positions[rank_a]) & set(positions[rank_b])
            shared_list = sorted(shared, key=lambda g: positions[rank_a][g])
            order_b = [positions[rank_b][g] for g in shared_list]
            if order_b != sorted(order_b):
                raise SimulationError(
                    f"AllReduce launch order differs between ranks "
                    f"{rank_a} and {rank_b}: potential deadlock"
                )
