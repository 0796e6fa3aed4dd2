"""Unit tests for the Expand / Shrink / Migrate primitives."""

import pytest

from repro.core.placement import Placement
from repro.core.primitives import (
    Expand,
    Migrate,
    Shrink,
    apply_actions,
)
from repro.exceptions import PlacementError


@pytest.fixture
def four_by_four() -> Placement:
    return Placement.balanced(4, 4, 2)


class TestExpand:
    def test_apply_adds_replica(self, four_by_four):
        p = four_by_four
        gpu = p.gpus_of(1)[0]
        Shrink(expert=1, gpu=gpu).apply(p)
        source = p.gpus_of(0)[0]
        Expand(expert=0, gpu=gpu, source_gpu=source).apply(p)
        assert p.count(0, gpu) >= 1

    def test_source_must_hold_expert(self, four_by_four):
        p = four_by_four
        gpu = p.gpus_of(1)[0]
        Shrink(expert=1, gpu=gpu).apply(p)
        bad_source = next(
            g for g in range(4) if p.count(0, g) == 0
        )
        with pytest.raises(PlacementError):
            Expand(expert=0, gpu=gpu, source_gpu=bad_source).apply(p)

    def test_intra_gpu_expand_free(self):
        assert Expand(expert=0, gpu=1, source_gpu=1).transfers() == ()

    def test_inter_gpu_expand_costs_state_transfer(self):
        action = Expand(expert=0, gpu=4, source_gpu=0)
        assert action.transfers() == ((0, 4),)


class TestShrink:
    def test_zero_cost(self):
        assert Shrink(expert=0, gpu=0).transfers() == ()

    def test_cannot_remove_last_replica(self):
        p = Placement.expert_parallel(4, 4)
        with pytest.raises(PlacementError):
            Shrink(expert=0, gpu=0).apply(p)


class TestMigrate:
    def test_swap_applies(self, four_by_four):
        p = four_by_four
        e_a, e_b = 0, 1
        gpu_a = p.gpus_of(e_a)[0]
        gpu_b = next(g for g in p.gpus_of(e_b) if g != gpu_a)
        Migrate(expert_a=e_a, gpu_a=gpu_a, expert_b=e_b, gpu_b=gpu_b).apply(p)
        assert p.count(e_a, gpu_b) >= 1
        assert p.count(e_b, gpu_a) >= 1

    def test_transfers_both_directions(self):
        action = Migrate(expert_a=0, gpu_a=0, expert_b=1, gpu_b=4)
        assert action.transfers() == ((0, 4), (4, 0))


class TestApplyActions:
    def test_sequence_validates_final_state(self, four_by_four):
        p = four_by_four
        gpu = p.gpus_of(3)[0]
        source = p.gpus_of(0)[0]
        apply_actions(
            p,
            [Shrink(expert=3, gpu=gpu), Expand(expert=0, gpu=gpu, source_gpu=source)],
        )
        assert p.counts.sum() == 8  # slot count conserved
