"""The optimizer of the NumPy training stack.

Adam keeps per-parameter first/second moments — the "optimizer states"
whose transfer the paper's Expand/Migrate primitives must pay for
(``size(e.model_states)`` in the adjustment cost model).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.exceptions import ModelError
from repro.model.layers import Parameter


class Adam:
    """Adam with bias correction over a fixed parameter list."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        if lr <= 0:
            raise ModelError("learning rate must be > 0")
        self.parameters = list(parameters)
        if not self.parameters:
            raise ModelError("optimizer needs at least one parameter")
        self.lr = lr
        beta1, beta2 = betas
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ModelError("betas must be in [0, 1)")
        if eps <= 0:
            raise ModelError("eps must be > 0")
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self._t = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self._t
        bias2 = 1.0 - b2**self._t
        for p, m, v in zip(self.parameters, self._m, self._v):
            m *= b1
            m += (1 - b1) * p.grad
            v *= b2
            v += (1 - b2) * p.grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
