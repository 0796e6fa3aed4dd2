"""Core neural-network building blocks with manual backpropagation.

Every module follows the same contract:

* ``forward(x)`` computes the output and caches what backward needs;
* ``backward(grad_out)`` consumes the upstream gradient, accumulates
  parameter gradients in place, and returns the input gradient;
* ``parameters()`` yields all :class:`Parameter` objects.

Shapes are ``(..., features)``: modules operate on the last axis and are
agnostic to leading batch/sequence axes.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.exceptions import ModelError


class Parameter:
    """A trainable tensor with its gradient accumulator."""

    def __init__(self, data: np.ndarray, name: str = "") -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Parameter(name={self.name!r}, shape={self.shape})"


class Module:
    """Base class: parameter discovery and gradient reset."""

    def parameters(self) -> Iterator[Parameter]:
        """Yield this module's parameters, recursing into sub-modules."""
        for value in vars(self).values():
            if isinstance(value, Parameter):
                yield value
            elif isinstance(value, Module):
                yield from value.parameters()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.parameters()
                    elif isinstance(item, Parameter):
                        yield item

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def _require_cache(self, cache: object, op: str) -> None:
        if cache is None:
            raise ModelError(f"{op}.backward called before forward")


def init_weight(
    rng: np.random.Generator, fan_in: int, fan_out: int
) -> np.ndarray:
    """Glorot-uniform initialization."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, (fan_in, fan_out))


class Linear(Module):
    """Affine map on the last axis: ``y = x @ W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        name: str = "linear",
    ) -> None:
        if in_features < 1 or out_features < 1:
            raise ModelError("feature dimensions must be >= 1")
        self.weight = Parameter(
            init_weight(rng, in_features, out_features), f"{name}.weight"
        )
        self.bias = Parameter(np.zeros(out_features), f"{name}.bias")
        self._cache: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.weight.shape[0]:
            raise ModelError(
                f"expected last dim {self.weight.shape[0]}, got {x.shape[-1]}"
            )
        self._cache = x
        return x @ self.weight.data + self.bias.data

    def backward(self, grad: np.ndarray) -> np.ndarray:
        self._require_cache(self._cache, "Linear")
        x = self._cache
        flat_x = x.reshape(-1, x.shape[-1])
        flat_g = grad.reshape(-1, grad.shape[-1])
        self.weight.grad += flat_x.T @ flat_g
        self.bias.grad += flat_g.sum(axis=0)
        return grad @ self.weight.data.T


class ReLU(Module):
    """Rectified linear unit."""

    def __init__(self) -> None:
        self._cache: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x > 0
        return np.where(self._cache, x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        self._require_cache(self._cache, "ReLU")
        return grad * self._cache


class LayerNorm(Module):
    """Layer normalization over the last axis."""

    def __init__(self, features: int, eps: float = 1e-5) -> None:
        if features < 1:
            raise ModelError("features must be >= 1")
        self.gamma = Parameter(np.ones(features), "ln.gamma")
        self.beta = Parameter(np.zeros(features), "ln.beta")
        self._eps = eps
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self._eps)
        normed = (x - mean) * inv_std
        self._cache = (normed, inv_std)
        return normed * self.gamma.data + self.beta.data

    def backward(self, grad: np.ndarray) -> np.ndarray:
        self._require_cache(self._cache, "LayerNorm")
        normed, inv_std = self._cache
        flat_n = normed.reshape(-1, normed.shape[-1])
        flat_g = grad.reshape(-1, grad.shape[-1])
        self.gamma.grad += (flat_g * flat_n).sum(axis=0)
        self.beta.grad += flat_g.sum(axis=0)
        g = grad * self.gamma.data
        n = normed.shape[-1]
        # d/dx of (x - mean) * inv_std, with mean/var both functions of x.
        term1 = g
        term2 = g.mean(axis=-1, keepdims=True)
        term3 = normed * (g * normed).mean(axis=-1, keepdims=True)
        return inv_std * (term1 - term2 - term3)


class Embedding(Module):
    """Token-id lookup table."""

    def __init__(
        self, vocab_size: int, dim: int, rng: np.random.Generator
    ) -> None:
        if vocab_size < 1 or dim < 1:
            raise ModelError("vocab_size and dim must be >= 1")
        self.table = Parameter(
            rng.normal(0.0, 0.02, (vocab_size, dim)), "embedding.table"
        )
        self._cache: np.ndarray | None = None

    def forward(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids)
        if ids.max(initial=0) >= self.table.shape[0] or ids.min(initial=0) < 0:
            raise ModelError("token id out of vocabulary range")
        self._cache = ids
        return self.table.data[ids]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        self._require_cache(self._cache, "Embedding")
        ids = self._cache
        np.add.at(
            self.table.grad, ids.reshape(-1), grad.reshape(-1, grad.shape[-1])
        )
        return np.zeros(ids.shape + (0,))  # ids carry no gradient


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)
