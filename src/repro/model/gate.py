"""The sparse Top-K gate network with auxiliary balance loss (Eq. 3).

``g(x) = softmax(TopK(x @ W_g))`` — logits are computed for every expert,
the top-k survive, and the combine weights are the softmax over the
surviving logits.

The balance loss is the GShard/Switch auxiliary:

``aux = E * sum_e f_e * P_e``

where ``f_e`` is the fraction of tokens whose top-1 choice is expert ``e``
(treated as constant w.r.t. gradients) and ``P_e`` the mean full-softmax
probability of ``e``. A perfectly uniform router scores ``aux = 1``; heavier
skew scores higher. The coefficient trades workload balance against model
quality — the exact trade-off Figure 2 sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ModelError
from repro.model.layers import Module, Parameter, softmax


@dataclass
class GateStats:
    """Observability record of one gate invocation.

    Attributes:
        expert_counts: Tokens assigned to each expert (all k slots).
        top1_counts: Tokens whose first choice was each expert.
        balance_loss: Value of the auxiliary loss (before coefficient).
        mean_probs: Mean full-softmax probability per expert.
    """

    expert_counts: np.ndarray
    top1_counts: np.ndarray
    balance_loss: float
    mean_probs: np.ndarray


class TopKGate(Module):
    """Data-dependent sparse router.

    Args:
        d_model: Input feature size.
        num_experts: Number of experts to route over.
        top_k: Experts activated per token.
        balance_coef: Weight of the auxiliary balance loss added to the
            gradient during :meth:`backward` (0 disables it).
        rng: Initializer RNG.
    """

    def __init__(
        self,
        d_model: int,
        num_experts: int,
        top_k: int,
        balance_coef: float,
        rng: np.random.Generator,
    ) -> None:
        if not 1 <= top_k <= num_experts:
            raise ModelError("top_k must be in [1, num_experts]")
        if balance_coef < 0:
            raise ModelError("balance_coef must be >= 0")
        self.num_experts = num_experts
        self.top_k = top_k
        self.balance_coef = balance_coef
        self.w_gate = Parameter(
            rng.normal(0.0, 0.02, (d_model, num_experts)), "gate.w"
        )
        self._cache: tuple | None = None
        self.last_stats: GateStats | None = None

    def forward(
        self, x: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Route a flat batch of tokens.

        Args:
            x: Tokens ``(N, d_model)``.

        Returns:
            ``(weights, indices)`` both ``(N, top_k)``: combine weights
            (softmax over the selected logits, summing to 1 per token) and
            the chosen expert ids, ordered best-first.
        """
        if x.ndim != 2 or x.shape[1] != self.w_gate.shape[0]:
            raise ModelError(
                f"expected (N, {self.w_gate.shape[0]}), got {x.shape}"
            )
        logits = x @ self.w_gate.data
        n = x.shape[0]
        order = np.argsort(-logits, axis=1, kind="stable")
        indices = order[:, : self.top_k]
        rows = np.arange(n)[:, None]
        selected = logits[rows, indices]
        weights = softmax(selected, axis=1)

        full_probs = softmax(logits, axis=1)
        top1 = indices[:, 0]
        top1_counts = np.bincount(top1, minlength=self.num_experts)
        expert_counts = np.bincount(
            indices.reshape(-1), minlength=self.num_experts
        )
        f = top1_counts / max(n, 1)
        mean_probs = full_probs.mean(axis=0)
        balance_loss = float(self.num_experts * (f * mean_probs).sum())
        self.last_stats = GateStats(
            expert_counts=expert_counts,
            top1_counts=top1_counts,
            balance_loss=balance_loss,
            mean_probs=mean_probs,
        )
        self._cache = (x, full_probs, weights, indices, f)
        return weights, indices

    def backward(self, grad_weights: np.ndarray) -> np.ndarray:
        """Backpropagate through routing.

        Args:
            grad_weights: ``dL/d(combine weights)`` of shape ``(N, top_k)``.

        Returns:
            ``dL/dx`` of shape ``(N, d_model)``. The gate weight gradient —
            including the balance-loss term — is accumulated in place.
        """
        self._require_cache(self._cache, "TopKGate")
        x, full_probs, weights, indices, f = self._cache
        n = x.shape[0]
        rows = np.arange(n)[:, None]

        # Task-loss path: softmax over the selected logits.
        inner = (grad_weights * weights).sum(axis=1, keepdims=True)
        grad_selected = weights * (grad_weights - inner)
        grad_logits = np.zeros((n, self.num_experts))
        np.add.at(grad_logits, (rows, indices), grad_selected)

        # Balance-loss path: aux = E * sum_e f_e * mean_n softmax(logits)_e.
        if self.balance_coef > 0:
            coeff = self.balance_coef * self.num_experts / n
            # d aux / d logits = coeff * J_softmax^T f  per token.
            dot = full_probs @ f
            grad_logits += coeff * full_probs * (f[None, :] - dot[:, None])

        self.w_gate.grad += x.T @ grad_logits
        return grad_logits @ self.w_gate.data.T
