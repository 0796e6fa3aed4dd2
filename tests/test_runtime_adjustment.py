"""Unit tests for adjustment transfer pricing (merge / parallelize)."""

import pytest

from repro.core.primitives import Expand, Migrate, Shrink
from repro.runtime.adjustment import transfer_seconds


@pytest.fixture
def price(model_config, collectives):
    return lambda actions: transfer_seconds(
        actions, model_config.expert_state_bytes, collectives
    )


@pytest.fixture
def p2p(model_config, collectives):
    """Ground-truth seconds of ``copies`` merged state copies src -> dst."""
    return lambda src, dst, copies=1: collectives.p2p_time(
        copies * model_config.expert_state_bytes, src, dst
    )


class TestDrain:
    def test_empty_drain(self, price):
        assert price([]) == 0.0

    def test_shrink_costs_nothing(self, price):
        assert price([Shrink(0, 0), Shrink(1, 3)]) == 0.0

    def test_intra_gpu_expand_costs_nothing(self, price):
        assert price([Expand(expert=0, gpu=2, source_gpu=2)]) == 0.0


class TestMergeAndParallel:
    def test_same_link_transfers_merged(self, price, p2p):
        # One message of twice the bytes: a single launch latency.
        actions = [
            Expand(expert=0, gpu=4, source_gpu=0),
            Expand(expert=1, gpu=4, source_gpu=0),
        ]
        assert price(actions) == p2p(0, 4, copies=2)
        assert price(actions) < 2 * p2p(0, 4)

    def test_disjoint_transfers_run_in_one_wave(self, price, p2p):
        actions = [
            Expand(expert=0, gpu=4, source_gpu=0),
            Expand(expert=1, gpu=5, source_gpu=1),
        ]
        assert price(actions) == max(p2p(0, 4), p2p(1, 5))

    def test_conflicting_transfers_serialize(self, price, p2p):
        # The links share device 4, so they run in consecutive waves.
        actions = [
            Expand(expert=0, gpu=4, source_gpu=0),
            Expand(expert=1, gpu=5, source_gpu=4),
        ]
        assert price(actions) == p2p(0, 4) + p2p(4, 5)

    def test_migrate_generates_two_transfers(self, price, p2p):
        # Opposite directions share both endpoints: two waves, no merge.
        actions = [Migrate(expert_a=0, gpu_a=0, expert_b=1, gpu_b=4)]
        assert price(actions) == p2p(0, 4) + p2p(4, 0)

    def test_waves_pack_greedily_in_first_seen_order(self, price, p2p):
        # (4 -> 5) conflicts with (0 -> 4) and waits for the second wave;
        # (1 -> 2) is disjoint from the first and joins it.
        actions = [
            Expand(expert=0, gpu=4, source_gpu=0),
            Expand(expert=1, gpu=5, source_gpu=4),
            Expand(expert=2, gpu=2, source_gpu=1),
            Shrink(expert=3, gpu=0),
        ]
        assert price(actions) == max(p2p(0, 4), p2p(1, 2)) + p2p(4, 5)
