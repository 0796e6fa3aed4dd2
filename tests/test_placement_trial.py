"""Trial journal, version counter and signature caching on Placement."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.placement import Placement
from repro.core.primitives import Expand, Migrate, Shrink
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


class TestTrialJournal:
    def test_rollback_restores_counts_version_signature(self, placement):
        counts = placement.counts
        sig = placement.signature()
        version = placement.version
        token = placement.begin_trial()
        placement.remove_vexpert(0, placement.gpus_of(0)[0])
        placement.add_vexpert(1, placement.gpus_of(1)[0])
        placement.rollback(token)
        assert np.array_equal(placement.counts, counts)
        assert placement.signature() == sig
        assert placement.version == version

    def test_trial_context_manager_always_rolls_back(self, placement):
        counts = placement.counts
        with placement.trial() as trial:
            assert trial is placement
            Shrink(expert=0, gpu=placement.gpus_of(0)[0]).apply(trial)
        assert np.array_equal(placement.counts, counts)

    def test_trial_rolls_back_on_exception(self, placement):
        counts = placement.counts
        with pytest.raises(RuntimeError):
            with placement.trial():
                placement.remove_vexpert(0, placement.gpus_of(0)[0])
                raise RuntimeError("search aborted")
        assert np.array_equal(placement.counts, counts)

    def test_partial_action_failure_rolls_back_cleanly(self, placement):
        counts = placement.counts
        with placement.trial() as trial:
            gpu = placement.gpus_of(0)[0]
            Shrink(expert=0, gpu=gpu).apply(trial)
            with pytest.raises(PlacementError):
                # Source GPU holds no replica of expert 1: Expand refuses.
                Expand(expert=1, gpu=gpu, source_gpu=99).apply(trial)
        assert np.array_equal(placement.counts, counts)

    def test_nested_trials(self, placement):
        counts = placement.counts
        outer = placement.begin_trial()
        placement.add_vexpert(0, placement.gpus_of(0)[0])
        mid = placement.counts
        inner = placement.begin_trial()
        placement.add_vexpert(1, placement.gpus_of(1)[0])
        placement.rollback(inner)
        assert np.array_equal(placement.counts, mid)
        placement.rollback(outer)
        assert np.array_equal(placement.counts, counts)

    def test_empty_inner_trial_keeps_the_outer_one_open(self, placement):
        counts = placement.counts
        with placement.trial():
            with placement.trial():
                pass  # shares the outer trial's (depth, version) token
            placement.add_vexpert(2, 3)
        assert np.array_equal(placement.counts, counts)

    def test_rollback_without_trial_raises(self, placement):
        with pytest.raises(PlacementError):
            placement.rollback((0, 0))

    def test_migrate_round_trips_through_journal(self, placement):
        counts = placement.counts
        gpu_a = placement.gpus_of(0)[0]
        partner_gpu = next(
            g for g in range(placement.num_gpus)
            if g != gpu_a and placement.experts_on(g)
        )
        partner = next(
            e for e in placement.experts_on(partner_gpu) if e != 0
        )
        with placement.trial() as trial:
            Migrate(
                expert_a=0, gpu_a=gpu_a,
                expert_b=partner, gpu_b=partner_gpu,
            ).apply(trial)
            assert not np.array_equal(trial.counts, counts)
        assert np.array_equal(placement.counts, counts)

    def test_mutations_after_rollback_are_clean(self, placement):
        token = placement.begin_trial()
        placement.add_vexpert(0, placement.gpus_of(0)[0])
        placement.rollback(token)
        # Journal closed: normal mutations must not try to journal.
        placement.add_vexpert(2, placement.gpus_of(2)[0])
        placement.validate()


# One expert and one GPU past the edge, so range refusals are drawn too.
_EXPERT = st.integers(0, 8)
_GPU = st.integers(0, 4)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add_vexpert"), _EXPERT, _GPU),
        st.tuples(st.just("remove_vexpert"), _EXPERT, _GPU),
        st.tuples(st.just("move_vexpert"), _EXPERT, _GPU, _GPU),
        st.tuples(st.just("swap_vexperts"), _EXPERT, _GPU, _EXPERT, _GPU),
        st.just(("begin_trial",)),
        st.just(("rollback",)),
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
    def test_totals_track_every_mutation_and_rollback(self, ops):
        placement = striped_placement()
        tokens = []
        for name, *args in ops:
            if name == "begin_trial":
                tokens.append(placement.begin_trial())
            elif name == "rollback":
                if tokens:
                    placement.rollback(tokens.pop())
            else:
                try:
                    getattr(placement, name)(*args)
                except PlacementError:
                    pass  # refused: nothing may have changed
            self.assert_in_step(placement)
        while tokens:
            placement.rollback(tokens.pop())
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
