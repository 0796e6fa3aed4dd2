"""Unit tests for NN building blocks, including numeric gradient checks."""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.model.layers import (
    Embedding,
    LayerNorm,
    Linear,
    Module,
    Parameter,
    ReLU,
    softmax,
)


def numeric_grad(f, x, eps=1e-6):
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        up = f()
        flat[i] = old - eps
        down = f()
        flat[i] = old
        gflat[i] = (up - down) / (2 * eps)
    return grad


def check_input_gradient(module: Module, x: np.ndarray, atol=1e-6):
    """Analytic dL/dx vs numeric, with L = sum(forward(x) * w)."""
    rng = np.random.default_rng(0)
    w = rng.normal(0, 1, module.forward(x.copy()).shape)

    def loss():
        return float((module.forward(x) * w).sum())

    out = module.forward(x)
    analytic = module.backward(w)
    numeric = numeric_grad(loss, x)
    np.testing.assert_allclose(analytic, numeric, atol=atol)


class TestParameterAndModule:
    def test_zero_grad(self, rng):
        p = Parameter(rng.normal(0, 1, (3, 3)))
        p.grad += 1.0
        p.zero_grad()
        assert (p.grad == 0).all()

    def test_parameters_recurse(self, rng):
        class Stack(Module):
            def __init__(self, *modules):
                self.modules = list(modules)

        stack = Stack(Linear(4, 8, rng), ReLU(), Linear(8, 2, rng))
        params = list(stack.parameters())
        assert len(params) == 4
        assert sum(p.data.size for p in params) == 4 * 8 + 8 + 8 * 2 + 2


class TestLinear:
    def test_forward_shape(self, rng):
        layer = Linear(4, 6, rng)
        assert layer.forward(rng.normal(0, 1, (5, 4))).shape == (5, 6)

    def test_forward_batched_leading_dims(self, rng):
        layer = Linear(4, 6, rng)
        assert layer.forward(rng.normal(0, 1, (2, 3, 4))).shape == (2, 3, 6)

    def test_input_gradient(self, rng):
        check_input_gradient(Linear(4, 3, rng), rng.normal(0, 1, (5, 4)))

    def test_weight_gradient(self, rng):
        layer = Linear(3, 2, rng)
        x = rng.normal(0, 1, (4, 3))
        w = rng.normal(0, 1, (4, 2))

        def loss():
            return float((layer.forward(x) * w).sum())

        layer.forward(x)
        layer.zero_grad()
        layer.backward(w)
        numeric = numeric_grad(loss, layer.weight.data)
        np.testing.assert_allclose(layer.weight.grad, numeric, atol=1e-6)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ModelError):
            Linear(4, 3, rng).forward(np.zeros((2, 5)))

    def test_backward_before_forward_rejected(self, rng):
        with pytest.raises(ModelError):
            Linear(4, 3, rng).backward(np.zeros((2, 3)))


class TestActivations:
    def test_relu_gradient(self, rng):
        check_input_gradient(ReLU(), rng.normal(0, 1, (6, 4)) + 0.1)

    def test_relu_clips_negative(self):
        relu = ReLU()
        assert (relu.forward(np.array([-1.0, 2.0])) == [0.0, 2.0]).all()


class TestLayerNorm:
    def test_output_normalized(self, rng):
        ln = LayerNorm(8)
        out = ln.forward(rng.normal(3, 5, (10, 8)))
        np.testing.assert_allclose(out.mean(axis=-1), 0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=-1), 1, atol=1e-4)

    def test_input_gradient(self, rng):
        check_input_gradient(LayerNorm(5), rng.normal(0, 1, (4, 5)), atol=1e-5)

    def test_gamma_beta_gradients(self, rng):
        ln = LayerNorm(4)
        x = rng.normal(0, 2, (6, 4))
        w = rng.normal(0, 1, (6, 4))

        def loss():
            return float((ln.forward(x) * w).sum())

        ln.forward(x)
        ln.zero_grad()
        ln.backward(w)
        np.testing.assert_allclose(
            ln.gamma.grad, numeric_grad(loss, ln.gamma.data), atol=1e-5
        )
        np.testing.assert_allclose(
            ln.beta.grad, numeric_grad(loss, ln.beta.data), atol=1e-5
        )


class TestEmbedding:
    def test_lookup(self, rng):
        emb = Embedding(10, 4, rng)
        ids = np.array([[1, 2], [3, 1]])
        out = emb.forward(ids)
        assert out.shape == (2, 2, 4)
        np.testing.assert_array_equal(out[0, 0], emb.table.data[1])

    def test_gradient_accumulates_per_id(self, rng):
        emb = Embedding(5, 3, rng)
        ids = np.array([[0, 0]])
        emb.forward(ids)
        emb.zero_grad()
        emb.backward(np.ones((1, 2, 3)))
        np.testing.assert_allclose(emb.table.grad[0], 2.0)

    def test_out_of_vocab_rejected(self, rng):
        with pytest.raises(ModelError):
            Embedding(5, 3, rng).forward(np.array([[7]]))


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        out = softmax(rng.normal(0, 10, (5, 7)))
        np.testing.assert_allclose(out.sum(axis=-1), 1.0)

    def test_stable_for_large_logits(self):
        out = softmax(np.array([[1e9, 1e9 + 1]]))
        assert np.isfinite(out).all()
