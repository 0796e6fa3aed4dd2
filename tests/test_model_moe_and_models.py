"""Unit tests for the MoE layer, transformer models, losses, optimizers."""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.model.losses import (
    perplexity_from_loss,
    softmax_cross_entropy,
    top_k_accuracy,
)
from repro.model.moe_layer import MoELayer
from repro.model.optimizer import Adam
from repro.model.layers import Linear, Parameter
from repro.model.transformer import MoEClassifier, MoELanguageModel


@pytest.fixture
def moe(rng) -> MoELayer:
    return MoELayer(
        d_model=8, d_ffn=16, num_experts=4, top_k=2,
        balance_coef=0.0, capacity_factor=None, rng=rng,
    )


class TestMoELayer:
    def test_forward_shape(self, moe, rng):
        x = rng.normal(0, 1, (10, 8))
        assert moe.forward(x).shape == (10, 8)

    def test_stats_recorded(self, moe, rng):
        moe.forward(rng.normal(0, 1, (10, 8)))
        stats = moe.last_stats
        assert stats.expert_counts.sum() == 20  # top-2
        assert stats.dropped_slots == 0
        assert np.array_equal(stats.processed_counts, stats.expert_counts)

    def test_capacity_drops_overflow(self, rng):
        moe = MoELayer(8, 16, 4, 2, 0.0, capacity_factor=0.5, rng=rng)
        moe.forward(rng.normal(0, 1, (40, 8)))
        stats = moe.last_stats
        assert stats.capacity == 10  # 0.5 * 2 * 40 / 4
        assert (stats.processed_counts <= stats.capacity).all()
        assert stats.dropped_slots == stats.expert_counts.sum() - stats.processed_counts.sum()

    def test_eval_mode_never_drops(self, rng):
        moe = MoELayer(8, 16, 4, 2, 0.0, capacity_factor=0.25, rng=rng)
        moe.training = False
        moe.forward(rng.normal(0, 1, (40, 8)))
        assert moe.last_stats.dropped_slots == 0

    def test_input_gradient_numeric(self, moe, rng):
        x = rng.normal(0, 1, (6, 8))
        w = rng.normal(0, 1, (6, 8))

        def loss():
            return float((moe.forward(x) * w).sum())

        moe.forward(x)
        moe.zero_grad()
        analytic = moe.backward(w)
        eps = 1e-6
        for idx in [(0, 0), (3, 4), (5, 7)]:
            old = x[idx]
            x[idx] = old + eps
            up = loss()
            x[idx] = old - eps
            down = loss()
            x[idx] = old
            assert analytic[idx] == pytest.approx(
                (up - down) / (2 * eps), abs=1e-5
            )

    def test_wrong_rank_rejected(self, moe):
        with pytest.raises(ModelError):
            moe.forward(np.zeros((2, 3, 8)))


class TestLosses:
    def test_cross_entropy_matches_manual(self):
        logits = np.array([[2.0, 0.0], [0.0, 2.0]])
        loss, grad = softmax_cross_entropy(logits, np.array([0, 1]))
        expected = -np.log(np.exp(2) / (np.exp(2) + 1))
        assert loss == pytest.approx(expected)
        assert grad.shape == (2, 2)

    def test_gradient_is_probs_minus_onehot(self):
        logits = np.zeros((1, 4))
        _, grad = softmax_cross_entropy(logits, np.array([2]))
        np.testing.assert_allclose(
            grad[0], np.array([0.25, 0.25, -0.75, 0.25])
        )

    def test_perplexity(self):
        assert perplexity_from_loss(0.0) == 1.0
        assert perplexity_from_loss(np.log(8)) == pytest.approx(8.0)

    def test_topk_accuracy(self):
        logits = np.array([[0.1, 0.9, 0.5], [0.9, 0.1, 0.5]])
        targets = np.array([1, 2])
        assert top_k_accuracy(logits, targets, 1) == 0.5
        assert top_k_accuracy(logits, targets, 2) == 1.0

    def test_validation(self):
        with pytest.raises(ModelError):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 5]))
        with pytest.raises(ModelError):
            perplexity_from_loss(-1.0)


class TestOptimizers:
    def test_adam_descends_quadratic(self):
        p = Parameter(np.array([10.0]))
        opt = Adam([p], lr=0.5)
        for _ in range(100):
            p.zero_grad()
            p.grad += 2 * p.data
            opt.step()
        assert abs(p.data[0]) < 0.5

    def test_validation(self, rng):
        layer = Linear(2, 2, rng)
        with pytest.raises(ModelError):
            Adam(layer.parameters(), lr=0.0)
        with pytest.raises(ModelError):
            Adam(layer.parameters(), betas=(1.0, 0.9))
        with pytest.raises(ModelError):
            Adam([], lr=0.1)


class TestTaskModels:
    def test_classifier_trains(self, rng):
        model = MoEClassifier(
            input_dim=8, num_classes=3, d_model=16, num_layers=2,
            num_heads=2, d_ffn=32, num_experts=4, num_patches=2, seed=0,
        )
        opt = Adam(model.parameters(), lr=3e-3)
        x = rng.normal(0, 1, (64, 8))
        y = (x[:, 0] > 0).astype(int)
        first_loss = None
        for _ in range(40):
            logits = model.forward(x)
            loss, grad = softmax_cross_entropy(logits, y)
            if first_loss is None:
                first_loss = loss
            model.zero_grad()
            model.backward(grad)
            opt.step()
        assert loss < first_loss * 0.7

    def test_classifier_patch_validation(self):
        with pytest.raises(ModelError):
            MoEClassifier(input_dim=10, num_classes=2, num_patches=4)

    def test_lm_forward_shape(self, rng):
        model = MoELanguageModel(
            vocab_size=16, d_model=16, num_layers=2, num_heads=2,
            d_ffn=32, num_experts=4, seed=0,
        )
        tokens = rng.integers(0, 16, (2, 10))
        assert model.forward(tokens).shape == (2, 10, 16)

    def test_lm_trains(self, rng):
        model = MoELanguageModel(
            vocab_size=8, d_model=16, num_layers=2, num_heads=2,
            d_ffn=32, num_experts=4, seed=0,
        )
        opt = Adam(model.parameters(), lr=3e-3)
        # trivially predictable sequence
        tokens = np.tile(np.arange(8), (4, 2))
        first_loss = None
        for _ in range(30):
            logits = model.forward(tokens[:, :-1])
            loss, grad = softmax_cross_entropy(
                logits.reshape(-1, 8), tokens[:, 1:].reshape(-1)
            )
            if first_loss is None:
                first_loss = loss
            model.zero_grad()
            model.backward(grad.reshape(logits.shape))
            opt.step()
        assert loss < first_loss * 0.6

    def test_dropped_fraction_reporting(self, rng):
        model = MoEClassifier(
            input_dim=8, num_classes=3, d_model=16, num_layers=2,
            num_experts=4, capacity_factor=0.3, num_patches=2, seed=0,
        )
        model.forward(rng.normal(0, 1, (64, 8)))
        assert sum(s.dropped_slots for s in model.moe_stats()) > 0
