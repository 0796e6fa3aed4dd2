"""Transformer blocks and task models built on the MoE layer.

Mirrors the paper's "Transformer with MoE Layer" (Figure 1a): every block
is ``x = x + Attn(LN(x)); x = x + FFN_or_MoE(LN(x))``, with MoE replacing
the FFN in every other block (the configuration whose parameter counts
match Table 1).

Two task heads cover the paper's evaluation domains:

* :class:`MoEClassifier` — patch-sequence classifier standing in for
  Swin-MoE image classification (top-1/top-5 accuracy);
* :class:`MoELanguageModel` — causal next-token model standing in for
  BERT/GPT-MoE pretraining (validation perplexity).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ModelError
from repro.model.attention import MultiHeadSelfAttention
from repro.model.expert import FFNExpert
from repro.model.layers import Embedding, LayerNorm, Linear, Module
from repro.model.moe_layer import MoELayer, MoELayerStats


class TransformerBlock(Module):
    """Pre-norm transformer block with an FFN or MoE second half."""

    def __init__(
        self,
        d_model: int,
        num_heads: int,
        d_ffn: int,
        rng: np.random.Generator,
        moe: MoELayer | None = None,
        causal: bool = False,
    ) -> None:
        self.ln1 = LayerNorm(d_model)
        self.attn = MultiHeadSelfAttention(d_model, num_heads, rng, causal)
        self.ln2 = LayerNorm(d_model)
        self.moe = moe
        self.ffn = None if moe is not None else FFNExpert(d_model, d_ffn, rng)
        self._shape: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3:
            raise ModelError(f"expected (B, T, D), got {x.shape}")
        x = x + self.attn.forward(self.ln1.forward(x))
        normed = self.ln2.forward(x)
        b, t, d = normed.shape
        self._shape = (b, t, d)
        flat = normed.reshape(b * t, d)
        if self.moe is not None:
            out = self.moe.forward(flat)
        else:
            out = self.ffn.forward(flat)
        return x + out.reshape(b, t, d)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        self._require_cache(self._shape, "TransformerBlock")
        b, t, d = self._shape
        flat_grad = grad.reshape(b * t, d)
        if self.moe is not None:
            inner = self.moe.backward(flat_grad)
        else:
            inner = self.ffn.backward(flat_grad)
        grad = grad + self.ln2.backward(inner.reshape(b, t, d))
        grad = grad + self.ln1.backward(self.attn.backward(grad))
        return grad


def _build_blocks(
    num_layers: int,
    d_model: int,
    num_heads: int,
    d_ffn: int,
    num_experts: int,
    top_k: int,
    balance_coef: float,
    capacity_factor: float | None,
    rng: np.random.Generator,
    causal: bool,
) -> list[TransformerBlock]:
    """Every other block hosts an MoE layer (odd indices), as in Table 1."""
    blocks = []
    for layer in range(num_layers):
        moe = None
        if layer % 2 == 1:
            moe = MoELayer(
                d_model, d_ffn, num_experts, top_k,
                balance_coef, capacity_factor, rng,
            )
        blocks.append(
            TransformerBlock(d_model, num_heads, d_ffn, rng, moe, causal)
        )
    return blocks


class _MoEStackMixin:
    """Shared helpers for models carrying a block stack."""

    blocks: list[TransformerBlock]

    def moe_layers(self) -> list[MoELayer]:
        return [b.moe for b in self.blocks if b.moe is not None]

    def set_training(self, training: bool) -> None:
        """Toggle train/eval mode (capacity truncation only trains)."""
        for layer in self.moe_layers():
            layer.training = training

    def balance_loss(self) -> float:
        """Mean auxiliary loss across MoE layers of the last forward."""
        losses = [
            layer.last_stats.balance_loss
            for layer in self.moe_layers()
            if layer.last_stats is not None
        ]
        if not losses:
            raise ModelError("balance_loss requires a prior forward")
        return float(np.mean(losses))

    def moe_stats(self) -> list[MoELayerStats]:
        return [
            layer.last_stats
            for layer in self.moe_layers()
            if layer.last_stats is not None
        ]

    def dropped_fraction(self) -> float:
        """Fraction of token-slots dropped in the last forward."""
        stats = self.moe_stats()
        assigned = sum(int(s.expert_counts.sum()) for s in stats)
        if assigned == 0:
            return 0.0
        dropped = sum(s.dropped_slots for s in stats)
        return dropped / assigned


class MoEClassifier(Module, _MoEStackMixin):
    """Patch-sequence classifier (the Swin-MoE stand-in).

    The input vector is split into ``num_patches`` patches, projected to
    ``d_model``, contextualized by the transformer stack, mean-pooled and
    classified.
    """

    def __init__(
        self,
        input_dim: int,
        num_classes: int,
        d_model: int = 64,
        num_layers: int = 4,
        num_heads: int = 4,
        d_ffn: int = 128,
        num_experts: int = 8,
        top_k: int = 2,
        balance_coef: float = 0.0,
        capacity_factor: float | None = None,
        num_patches: int = 4,
        seed: int = 0,
    ) -> None:
        if input_dim % num_patches != 0:
            raise ModelError(
                f"input_dim ({input_dim}) must divide into {num_patches} patches"
            )
        rng = np.random.default_rng(seed)
        self.num_patches = num_patches
        self.patch_dim = input_dim // num_patches
        self.embed = Linear(self.patch_dim, d_model, rng, "patch_embed")
        self.blocks = _build_blocks(
            num_layers, d_model, num_heads, d_ffn, num_experts, top_k,
            balance_coef, capacity_factor, rng, causal=False,
        )
        self.ln_out = LayerNorm(d_model)
        self.head = Linear(d_model, num_classes, rng, "cls_head")
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Classify ``(B, input_dim)`` inputs into ``(B, num_classes)`` logits."""
        if x.ndim != 2:
            raise ModelError(f"expected (B, input_dim), got {x.shape}")
        b = x.shape[0]
        patches = x.reshape(b, self.num_patches, self.patch_dim)
        h = self.embed.forward(patches)
        for block in self.blocks:
            h = block.forward(h)
        h = self.ln_out.forward(h)
        pooled = h.mean(axis=1)
        self._cache = (b, h.shape[1])
        return self.head.forward(pooled)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        self._require_cache(self._cache, "MoEClassifier")
        b, t = self._cache
        grad_pooled = self.head.backward(grad)
        grad_h = np.repeat(grad_pooled[:, None, :], t, axis=1) / t
        grad_h = self.ln_out.backward(grad_h)
        for block in reversed(self.blocks):
            grad_h = block.backward(grad_h)
        return self.embed.backward(grad_h)


class MoELanguageModel(Module, _MoEStackMixin):
    """Causal next-token model (the BERT/GPT-MoE stand-in)."""

    def __init__(
        self,
        vocab_size: int,
        d_model: int = 64,
        num_layers: int = 4,
        num_heads: int = 4,
        d_ffn: int = 128,
        num_experts: int = 8,
        top_k: int = 2,
        balance_coef: float = 0.0,
        capacity_factor: float | None = None,
        seed: int = 0,
    ) -> None:
        rng = np.random.default_rng(seed)
        self.vocab_size = vocab_size
        self.embed = Embedding(vocab_size, d_model, rng)
        self.pos_embed = Embedding(512, d_model, rng)
        self.blocks = _build_blocks(
            num_layers, d_model, num_heads, d_ffn, num_experts, top_k,
            balance_coef, capacity_factor, rng, causal=True,
        )
        self.ln_out = LayerNorm(d_model)
        self.head = Linear(d_model, vocab_size, rng, "lm_head")

    def forward(self, tokens: np.ndarray) -> np.ndarray:
        """Next-token logits ``(B, T, vocab)`` for token ids ``(B, T)``."""
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ModelError(f"expected (B, T) token ids, got {tokens.shape}")
        if tokens.shape[1] > 512:
            raise ModelError("sequence length exceeds positional table (512)")
        positions = np.broadcast_to(
            np.arange(tokens.shape[1]), tokens.shape
        )
        h = self.embed.forward(tokens) + self.pos_embed.forward(positions)
        for block in self.blocks:
            h = block.forward(h)
        return self.head.forward(self.ln_out.forward(h))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        grad_h = self.ln_out.backward(self.head.backward(grad))
        for block in reversed(self.blocks):
            grad_h = block.backward(grad_h)
        self.pos_embed.backward(grad_h)
        return self.embed.backward(grad_h)
