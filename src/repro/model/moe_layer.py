"""The Mixture-of-Experts layer: gate, dispatch, experts, combine (Eq. 4).

``y = sum_i g(x)_i * e_i(x)`` over the top-k experts chosen by the gate.

Two token-handling policies are supported, matching the systems compared in
the paper:

* ``capacity_factor=None`` — every token reaches every chosen expert
  (FlexMoE's contract: 100% token efficiency);
* ``capacity_factor=c`` — each expert processes at most
  ``c * k * N / num_experts`` token-slots per batch; overflow slots are
  *dropped* (the token's residual connection passes through unchanged),
  reproducing DeepSpeed-style capacity truncation and its quality cost.

The layer records per-expert assignment counts each forward pass, which is
exactly the ``I`` matrix the FlexMoE Scheduler monitors — the bridge
between the quality stack and the systems simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ModelError
from repro.model.expert import FFNExpert
from repro.model.gate import TopKGate
from repro.model.layers import Module


@dataclass
class MoELayerStats:
    """Observability record of one MoE-layer forward pass.

    Attributes:
        expert_counts: Token-slots assigned per expert (before dropping).
        processed_counts: Token-slots actually processed per expert.
        dropped_slots: Token-slots dropped by capacity truncation.
        balance_loss: The gate's auxiliary loss value.
        capacity: Per-expert capacity applied (0 means unlimited).
    """

    expert_counts: np.ndarray
    processed_counts: np.ndarray
    dropped_slots: int
    balance_loss: float
    capacity: int


class MoELayer(Module):
    """Sparsely-gated MoE layer with optional capacity truncation.

    Args:
        d_model: Token feature size.
        d_ffn: Expert inner size.
        num_experts: Experts in the layer.
        top_k: Experts activated per token.
        balance_coef: Auxiliary balance-loss weight.
        capacity_factor: Per-expert capacity multiplier, or ``None`` for
            no dropping.
        rng: Initializer RNG.
    """

    def __init__(
        self,
        d_model: int,
        d_ffn: int,
        num_experts: int,
        top_k: int,
        balance_coef: float,
        capacity_factor: float | None,
        rng: np.random.Generator,
    ) -> None:
        if capacity_factor is not None and capacity_factor <= 0:
            raise ModelError("capacity_factor must be > 0 or None")
        self.num_experts = num_experts
        self.top_k = top_k
        self.capacity_factor = capacity_factor
        #: Capacity truncation only applies during training; evaluation
        #: always processes every token (as real systems evaluate).
        self.training = True
        self.gate = TopKGate(d_model, num_experts, top_k, balance_coef, rng)
        self.experts = [
            FFNExpert(d_model, d_ffn, rng, f"expert{i}")
            for i in range(num_experts)
        ]
        self._cache: tuple | None = None
        self.last_stats: MoELayerStats | None = None

    def _capacity(self, num_tokens: int) -> int:
        if self.capacity_factor is None or not self.training:
            return 0
        fair = self.top_k * num_tokens / self.num_experts
        return max(1, int(np.ceil(self.capacity_factor * fair)))

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Apply the MoE layer to flat tokens ``(N, d_model)``."""
        if x.ndim != 2:
            raise ModelError(f"MoELayer expects (N, d_model), got {x.shape}")
        n = x.shape[0]
        weights, indices = self.gate.forward(x)
        capacity = self._capacity(n)

        y = np.zeros_like(x)
        # Per-(expert) token slots: kept[e] lists (token, slot) positions.
        kept_positions: list[np.ndarray] = []
        kept_slots: list[np.ndarray] = []
        expert_outputs: list[np.ndarray] = []
        dropped = 0
        processed_counts = np.zeros(self.num_experts, dtype=np.int64)
        for e, expert in enumerate(self.experts):
            tokens, slots = np.nonzero(indices == e)
            if capacity and tokens.size > capacity:
                dropped += tokens.size - capacity
                tokens, slots = tokens[:capacity], slots[:capacity]
            processed_counts[e] = tokens.size
            if tokens.size == 0:
                kept_positions.append(tokens)
                kept_slots.append(slots)
                expert_outputs.append(np.zeros((0, x.shape[1])))
                continue
            out = expert.forward(x[tokens])
            y[tokens] += weights[tokens, slots, None] * out
            kept_positions.append(tokens)
            kept_slots.append(slots)
            expert_outputs.append(out)

        gate_stats = self.gate.last_stats
        self.last_stats = MoELayerStats(
            expert_counts=gate_stats.expert_counts,
            processed_counts=processed_counts,
            dropped_slots=dropped,
            balance_loss=gate_stats.balance_loss,
            capacity=capacity,
        )
        self._cache = (x, weights, indices, kept_positions, kept_slots,
                       expert_outputs)
        return y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        self._require_cache(self._cache, "MoELayer")
        x, weights, indices, kept_positions, kept_slots, expert_outputs = (
            self._cache
        )
        grad_x = np.zeros_like(x)
        grad_weights = np.zeros_like(weights)
        for e, expert in enumerate(self.experts):
            tokens = kept_positions[e]
            if tokens.size == 0:
                continue
            slots = kept_slots[e]
            out = expert_outputs[e]
            g = grad[tokens]
            # dL/d(weight slot) = <grad_y, expert_out>
            grad_weights[tokens, slots] += (g * out).sum(axis=1)
            # dL/d(expert out) = weight * grad_y
            grad_expert_out = weights[tokens, slots, None] * g
            grad_in = expert.backward(grad_expert_out)
            np.add.at(grad_x, tokens, grad_in)
        grad_x += self.gate.backward(grad_weights)
        return grad_x
