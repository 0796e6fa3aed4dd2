"""Unit tests for the Placement / vExpert model."""

import tracemalloc

import numpy as np
import pytest

from repro.core.placement import VEXPERT_DTYPE, VEXPERT_LIMIT, Placement
from repro.exceptions import PlacementError


class TestBalancedConstruction:
    def test_all_slots_used(self):
        p = Placement.balanced(8, 4, 2)
        assert p.counts.sum() == 8
        assert all(p.used_slots(g) == 2 for g in range(4))

    def test_every_expert_has_replica(self):
        p = Placement.balanced(5, 4, 2)
        assert (p.replica_counts() >= 1).all()

    def test_extra_slots_spread_over_experts(self):
        p = Placement.balanced(4, 4, 2)  # 8 slots for 4 experts
        assert sorted(p.replica_counts()) == [2, 2, 2, 2]

    def test_replicas_striped_over_distinct_gpus(self):
        p = Placement.balanced(2, 4, 1)  # 4 slots, 2 experts, 2 each
        for e in range(2):
            assert len(p.gpus_of(e)) == p.replicas(e)

    def test_insufficient_slots_rejected(self):
        with pytest.raises(PlacementError):
            Placement.balanced(10, 4, 2)


class TestExpertParallelConstruction:
    def test_striped_one_deep(self):
        p = Placement.expert_parallel(8, 4)
        assert (p.replica_counts() == 1).all()
        assert p.used_slots(0) == 2

    def test_fewer_experts_than_gpus(self):
        p = Placement.expert_parallel(2, 4)
        assert p.replicas(0) == 1
        assert p.used_slots(3) == 0


class TestInvariants:
    def test_rejects_orphan_expert(self):
        counts = np.zeros((2, 2), dtype=np.int64)
        counts[0, 0] = 2
        with pytest.raises(PlacementError):
            Placement(counts, 2)

    def test_rejects_over_capacity_gpu(self):
        counts = np.array([[3], [1]], dtype=np.int64)
        with pytest.raises(PlacementError):
            Placement(counts, 2)

    def test_rejects_negative_counts(self):
        counts = np.array([[-1, 2], [1, 1]], dtype=np.int64)
        with pytest.raises(PlacementError):
            Placement(counts, 4)

    def test_rejects_float_counts(self):
        with pytest.raises(PlacementError):
            Placement(np.ones((2, 2)) * 0.5, 2)


class TestMutations:
    def test_add_and_remove(self):
        p = Placement.balanced(4, 4, 2)
        before = p.replicas(0)
        gpu = next(g for g in range(4) if p.free_slots(g) > 0) if any(
            p.free_slots(g) for g in range(4)
        ) else None
        # All slots full: remove one first.
        victim_gpu = p.gpus_of(1)[0]
        p.remove_vexpert(1, victim_gpu)
        p.add_vexpert(0, victim_gpu)
        assert p.replicas(0) == before + 1

    def test_remove_last_replica_rejected(self):
        p = Placement.expert_parallel(4, 4)
        with pytest.raises(PlacementError):
            p.remove_vexpert(0, 0)

    def test_add_to_full_gpu_rejected(self):
        p = Placement.balanced(8, 4, 2)
        with pytest.raises(PlacementError):
            p.add_vexpert(0, 0)

    def test_swap_vexperts(self):
        p = Placement.expert_parallel(4, 2)  # e0,e2 on g0; e1,e3 on g1
        p.swap_vexperts(0, 0, 1, 1)
        assert p.count(0, 1) == 1
        assert p.count(1, 0) == 1
        p.validate()

    def test_swap_missing_replica_rejected(self):
        p = Placement.expert_parallel(4, 2)
        with pytest.raises(PlacementError):
            p.swap_vexperts(0, 1, 1, 0)


class TestQueries:
    def test_replica_groups(self):
        p = Placement.balanced(2, 4, 1)
        groups = p.replica_groups()
        assert set(groups) == {0, 1}
        assert all(len(g) == 2 for g in groups.values())

    def test_copy_is_independent(self):
        p = Placement.balanced(4, 4, 2)
        q = p.copy()
        victim = q.gpus_of(0)[0]
        q.remove_vexpert(0, victim)
        assert p.replicas(0) != q.replicas(0) or p.count(0, victim) != q.count(0, victim)

    def test_copy_clones_without_revalidating(self, monkeypatch):
        """A clone equals the original, validates, shares no array with
        it, and its own mutations leave the original untouched -- without
        re-running :meth:`Placement.validate` on the way."""
        p = Placement.balanced(6, 4, 3)
        p.swap_vexperts(0, p.gpus_of(0)[0], 1, p.gpus_of(1)[0])
        sig, counts = p.signature(), p.counts
        validated = []
        monkeypatch.setattr(
            Placement, "validate", lambda self: validated.append(self)
        )
        q = p.copy()
        assert validated == []
        monkeypatch.undo()
        assert q == p and q.signature() == sig
        assert q.replica_counts().tolist() == p.replica_counts().tolist()
        q.validate()
        assert q.version == 0
        assert q.state_token != p.state_token
        assert not np.shares_memory(q.counts_view, p.counts_view)
        assert not np.shares_memory(q._replicas, p._replicas)
        victim = q.gpus_of(2)[0]
        q.remove_vexpert(2, victim)
        q.add_vexpert(3, victim)
        assert q != p and q.signature() != sig
        assert np.array_equal(p.counts, counts) and p.signature() == sig
        assert p.replicas(2) == q.replicas(2) + 1
        p.validate()
        q.validate()

    def test_signature_changes_on_mutation(self):
        p = Placement.balanced(4, 4, 2)
        sig = p.signature()
        p.remove_vexpert(0, p.gpus_of(0)[0])
        assert p.signature() != sig

    def test_equality(self):
        assert Placement.balanced(4, 4, 2) == Placement.balanced(4, 4, 2)

    def test_out_of_range_rejected(self):
        p = Placement.balanced(4, 4, 2)
        with pytest.raises(PlacementError):
            p.replicas(7)
        with pytest.raises(PlacementError):
            p.used_slots(9)


class TestInt16Counts:
    """Counts are stored as int16 and checked before the cast narrows."""

    def test_every_builder_stores_int16(self):
        built = [
            Placement.balanced(8, 4, 2),
            Placement.balanced_subset(8, 6, 3, [0, 2, 4]),
            Placement.expert_parallel(8, 4),
            Placement(np.ones((2, 3), dtype=np.int64), 2),
            Placement(np.ones((2, 3), dtype=np.uint8), 2),
        ]
        built.append(built[0].copy())
        for p in built:
            assert p.counts_view.dtype == VEXPERT_DTYPE
            assert p.counts.dtype == VEXPERT_DTYPE
            assert p.replica_counts().dtype == np.int64
            assert p.signature() == p.counts.tobytes()

    def test_constructor_copies_int16_input(self):
        counts = np.ones((2, 2), dtype=VEXPERT_DTYPE)
        p = Placement(counts, 2)
        assert not np.shares_memory(p.counts_view, counts)
        p.remove_vexpert(0, 0)
        assert counts[0, 0] == 1

    @pytest.mark.parametrize("bad", [65537, VEXPERT_LIMIT, -1])
    def test_rejects_counts_int16_cannot_hold(self, bad):
        """65537 would wrap to 1 and pass validate(); it raises instead."""
        assert np.array([65537]).astype(VEXPERT_DTYPE)[0] == 1
        with pytest.raises(PlacementError, match=r"2\*\*15"):
            Placement(np.array([[bad]]), 4)

    def test_rejects_unsigned_counts_above_int64(self):
        with pytest.raises(PlacementError, match=r"2\*\*15"):
            Placement(np.array([[2**63 + 1]], dtype=np.uint64), 4)

    def test_rejects_slots_int16_cannot_hold(self):
        with pytest.raises(PlacementError, match=r"2\*\*15"):
            Placement(np.array([[1]]), VEXPERT_LIMIT)
        with pytest.raises(PlacementError, match=r"2\*\*15"):
            Placement.balanced(2, 1, VEXPERT_LIMIT)
        assert Placement(np.array([[1]]), VEXPERT_LIMIT - 1).slots_per_gpu == (
            VEXPERT_LIMIT - 1
        )

    def test_largest_count_fits(self):
        top = VEXPERT_LIMIT - 1
        p = Placement(np.array([[top, 0], [0, 1]]), top)
        assert p.count(0, 0) == top and p.replicas(0) == top
        p.add_vexpert(0, 1)
        p.remove_vexpert(0, 0)
        assert p.count(0, 0) == top - 1 and p.used_slots(1) == 2


class TestPlacementMemory:
    """A 4096-device placement holds its int16 matrix once: the
    tracemalloc peak of building and copying stays near its own size."""

    LIMIT = 1.25

    @staticmethod
    def traced_peak(build):
        """``build()``'s result and the peak bytes it allocated."""
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = build()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        return result, peak

    def test_balanced_builds_its_matrix_once(self):
        p, peak = self.traced_peak(lambda: Placement.balanced(512, 4096, 4))
        size = p.counts_view.nbytes
        assert size == 2 * 512 * 4096
        assert peak <= self.LIMIT * size

    def test_copy_allocates_one_matrix(self):
        p = Placement.balanced(512, 4096, 4)
        clone, peak = self.traced_peak(p.copy)
        assert clone == p
        assert peak <= self.LIMIT * p.counts_view.nbytes
