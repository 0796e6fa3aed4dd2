"""Version counter, signature caching and replica totals on Placement."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.placement import Placement
from repro.exceptions import PlacementError


def striped_placement() -> Placement:
    # Striped layout with free slots on every GPU (Placement.balanced
    # binds all slots, which would make Expand impossible to exercise).
    counts = np.zeros((8, 4), dtype=np.int64)
    for expert in range(8):
        counts[expert, expert % 4] = 1
    counts[0, 1] += 1  # replicated experts for Shrink/Migrate tests
    counts[1, 2] += 1
    return Placement(counts, slots_per_gpu=4)


@pytest.fixture
def placement() -> Placement:
    return striped_placement()


class TestVersionAndSignature:
    def test_version_bumps_on_every_mutation(self, placement):
        v0 = placement.version
        placement.add_vexpert(0, placement.gpus_of(0)[0])
        assert placement.version == v0 + 1
        placement.remove_vexpert(0, placement.gpus_of(0)[0])
        assert placement.version == v0 + 2

    def test_failed_mutation_does_not_bump(self, placement):
        v0 = placement.version
        with pytest.raises(PlacementError):
            placement.remove_vexpert(0, 99)
        assert placement.version == v0

    def test_signature_cached_and_invalidated(self, placement):
        sig = placement.signature()
        assert placement.signature() is sig  # cached object, no re-tobytes
        placement.add_vexpert(1, placement.gpus_of(1)[0])
        assert placement.signature() != sig
        assert placement.signature() == placement.counts.tobytes()

    def test_copy_preserves_signature_and_resets_version(self, placement):
        placement.add_vexpert(0, placement.gpus_of(0)[0])
        sig = placement.signature()
        clone = placement.copy()
        assert clone.signature() == sig
        assert clone.version == 0
        clone.add_vexpert(1, clone.gpus_of(1)[0])
        assert placement.signature() == sig  # clone mutations do not leak

    def test_counts_view_is_read_only_and_live(self, placement):
        view = placement.counts_view
        with pytest.raises(ValueError):
            view[0, 0] = 5
        gpu = placement.gpus_of(0)[0]
        before = view[0, gpu]
        placement.add_vexpert(0, gpu)
        assert view[0, gpu] == before + 1  # view tracks the live matrix

    def test_row_returns_copy(self, placement):
        row = placement.row(0)
        row[:] = 0
        assert placement.replicas(0) > 0


# One expert and one GPU past the edge, so range refusals are drawn too.
_EXPERT = st.integers(0, 8)
_GPU = st.integers(0, 4)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add_vexpert"), _EXPERT, _GPU),
        st.tuples(st.just("remove_vexpert"), _EXPERT, _GPU),
        st.tuples(st.just("swap_vexperts"), _EXPERT, _GPU, _EXPERT, _GPU),
    ),
    max_size=40,
)


class TestReplicaTotals:
    """The maintained ``n_e`` vector never drifts from the count matrix."""

    @staticmethod
    def assert_in_step(placement: Placement) -> None:
        totals = placement.counts.sum(axis=1)
        assert np.array_equal(placement.replica_counts(), totals)
        assert [placement.replicas(e) for e in range(totals.size)] == (
            totals.tolist()
        )

    @settings(max_examples=80, deadline=None)
    @given(ops=_OPS)
    def test_totals_track_every_mutation(self, ops):
        placement = striped_placement()
        for name, *args in ops:
            try:
                getattr(placement, name)(*args)
            except PlacementError:
                pass  # refused: nothing may have changed
            self.assert_in_step(placement)
        placement.validate()

    def test_replica_counts_returns_a_copy(self, placement):
        totals = placement.replica_counts()
        totals[:] = 0
        assert (placement.replica_counts() >= 1).all()

    def test_validate_rejects_drifted_totals(self, placement):
        placement._replicas[3] += 1
        with pytest.raises(PlacementError, match="replica totals"):
            placement.validate()
