"""Unit tests for the balance metrics (Eq. 6 and variance ablation)."""

import numpy as np
import pytest

from repro.core.balance import (
    balance_ratio,
    gpu_loads_even_split,
    metric_threshold_exceeded,
    metric_value,
    variance_ratio,
)
from repro.core.placement import Placement
from repro.exceptions import RoutingError


class TestBalanceRatio:
    def test_balanced_is_one(self):
        assert balance_ratio(np.array([5.0, 5.0, 5.0])) == 1.0

    def test_empty_loads_is_one(self):
        assert balance_ratio(np.zeros(4)) == 1.0

    def test_straggler_dominates(self):
        assert balance_ratio(np.array([1.0, 1.0, 10.0])) == pytest.approx(2.5)

    def test_always_at_least_one(self, rng):
        for _ in range(20):
            loads = rng.integers(0, 100, 8).astype(float)
            if loads.sum() == 0:
                continue
            assert balance_ratio(loads) >= 1.0

    def test_rejects_negative(self):
        with pytest.raises(RoutingError):
            balance_ratio(np.array([-1.0, 2.0]))

    def test_rejects_empty(self):
        with pytest.raises(RoutingError):
            balance_ratio(np.array([]))


class TestVarianceRatio:
    def test_balanced_is_zero(self):
        assert variance_ratio(np.array([3.0, 3.0])) == 0.0

    def test_scale_free(self):
        a = variance_ratio(np.array([1.0, 3.0]))
        b = variance_ratio(np.array([100.0, 300.0]))
        assert a == pytest.approx(b)

    def test_zero_loads(self):
        assert variance_ratio(np.zeros(3)) == 0.0


class TestMetricDispatch:
    def test_dispatch(self):
        loads = np.array([1.0, 3.0])
        assert metric_value("max", loads) == balance_ratio(loads)
        assert metric_value("variance", loads) == variance_ratio(loads)

    def test_unknown_metric(self):
        with pytest.raises(RoutingError):
            metric_value("p99", np.ones(2))

    def test_threshold_semantics(self):
        assert metric_threshold_exceeded("max", 1.3, 1.2)
        assert not metric_threshold_exceeded("max", 1.1, 1.2)
        # variance uses threshold - 1 so one knob serves both metrics
        assert metric_threshold_exceeded("variance", 0.3, 1.2)
        assert not metric_threshold_exceeded("variance", 0.1, 1.2)


class TestLoadDerivations:
    def test_even_split_respects_replica_shares(self):
        placement = Placement.balanced(2, 4, 1)  # each expert on 2 GPUs
        assignment = np.array([[8, 0, 0, 0], [0, 0, 0, 4]])
        loads = gpu_loads_even_split(assignment, placement)
        # expert 0 has 8 tokens over 2 replicas -> 4 each; expert 1: 2 each
        assert sorted(loads.tolist()) == [2.0, 2.0, 4.0, 4.0]

    def test_even_split_shape_validation(self, placement):
        with pytest.raises(RoutingError):
            gpu_loads_even_split(np.zeros(3), placement)
