"""Synthetic datasets for the model-quality experiments.

The paper's quality numbers (Table 2, Figure 2) come from pretraining on
Wikipedia (BERT/GPT perplexity) and ImageNet-1K (Swin top-1/top-5 accuracy).
Neither dataset is available offline, so we substitute generative tasks with
the one property that matters for the experiments: **inputs come from latent
modes that experts can specialize on**, so interfering with routing (token
dropping, heavy balance loss) measurably hurts quality.

* :class:`ClusterClassificationDataset` — Gaussian-mixture inputs with
  cluster-specific labelling rules; stands in for image classification
  (Swin-MoE, accuracy metric).
* :class:`MarkovLMDataset` — hidden-Markov token sequences with
  state-specific emissions; stands in for language-model pretraining
  (BERT/GPT-MoE, perplexity metric).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError


class ClusterClassificationDataset:
    """Gaussian-mixture classification with per-cluster labelling rules.

    Inputs are drawn from ``num_clusters`` Gaussian modes. Each cluster owns
    a private random linear map deciding the label, so a model benefits from
    routing each cluster's tokens to a dedicated expert. Labels are balanced
    across clusters in expectation but cluster popularity is skewed, giving
    the gate a realistic imbalanced routing problem.

    Args:
        num_classes: Number of output classes.
        num_clusters: Latent modes (natural expert count).
        input_dim: Dimensionality of the inputs.
        cluster_skew: Zipf exponent of the cluster popularity.
        noise: Within-cluster standard deviation (relative to unit-norm
            centers); larger noise makes the task harder.
        seed: RNG seed fixing centers, label maps and popularity.
    """

    def __init__(
        self,
        num_classes: int = 10,
        num_clusters: int = 8,
        input_dim: int = 32,
        cluster_skew: float = 1.0,
        noise: float = 0.25,
        seed: int = 0,
    ) -> None:
        if num_classes < 2:
            raise ConfigurationError("num_classes must be >= 2")
        if num_clusters < 1:
            raise ConfigurationError("num_clusters must be >= 1")
        if input_dim < 1:
            raise ConfigurationError("input_dim must be >= 1")
        if noise < 0:
            raise ConfigurationError("noise must be >= 0")
        self.num_classes = num_classes
        self.num_clusters = num_clusters
        self.input_dim = input_dim
        self.noise = noise
        init_rng = np.random.default_rng(seed)
        centers = init_rng.normal(0.0, 1.0, (num_clusters, input_dim))
        self._centers = centers / np.linalg.norm(centers, axis=1, keepdims=True)
        self._label_maps = init_rng.normal(
            0.0, 1.0, (num_clusters, num_classes, input_dim)
        )
        ranks = np.arange(1, num_clusters + 1, dtype=float)
        weights = ranks ** -max(cluster_skew, 0.0)
        self._cluster_probs = weights / weights.sum()
        init_rng.shuffle(self._cluster_probs)

    def sample(
        self, batch_size: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw a batch.

        Returns:
            ``(inputs, labels, clusters)`` with shapes ``(B, input_dim)``,
            ``(B,)`` and ``(B,)``. Cluster ids are exposed so tests can check
            expert specialization.
        """
        if batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        clusters = rng.choice(
            self.num_clusters, size=batch_size, p=self._cluster_probs
        )
        noise = rng.normal(0.0, self.noise, (batch_size, self.input_dim))
        inputs = self._centers[clusters] + noise
        logits = np.einsum("bcd,bd->bc", self._label_maps[clusters], inputs)
        labels = logits.argmax(axis=1)
        return inputs, labels, clusters


class MarkovLMDataset:
    """Hidden-Markov language-modelling task.

    A hidden chain over ``num_states`` states (sticky transitions keep state
    runs long) emits tokens from state-specific categorical distributions.
    Next-token prediction is solved optimally by inferring the state and
    using its emission table — the per-state structure experts can divide up.

    Args:
        vocab_size: Token vocabulary size.
        num_states: Hidden states.
        stickiness: Probability of remaining in the current state.
        emission_concentration: Dirichlet concentration of the per-state
            emission tables (small = peaky = easier specialization).
        seed: RNG seed fixing the chain and emissions.
    """

    def __init__(
        self,
        vocab_size: int = 64,
        num_states: int = 8,
        stickiness: float = 0.85,
        emission_concentration: float = 0.3,
        seed: int = 0,
    ) -> None:
        if vocab_size < 2:
            raise ConfigurationError("vocab_size must be >= 2")
        if num_states < 1:
            raise ConfigurationError("num_states must be >= 1")
        if not 0 <= stickiness < 1:
            raise ConfigurationError("stickiness must be in [0, 1)")
        if emission_concentration <= 0:
            raise ConfigurationError("emission_concentration must be > 0")
        self.vocab_size = vocab_size
        self.num_states = num_states
        init_rng = np.random.default_rng(seed)
        off_diag = (1.0 - stickiness) / max(1, num_states - 1)
        self._transition = np.full((num_states, num_states), off_diag)
        np.fill_diagonal(self._transition, stickiness if num_states > 1 else 1.0)
        self._emissions = init_rng.dirichlet(
            np.full(vocab_size, emission_concentration), size=num_states
        )

    def sample(
        self, batch_size: int, seq_len: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw a batch of token sequences.

        Returns:
            ``(tokens, states)`` of shape ``(B, seq_len)`` each. The hidden
            states are exposed for diagnostics only.
        """
        if batch_size < 1 or seq_len < 1:
            raise ConfigurationError("batch_size and seq_len must be >= 1")
        states = np.empty((batch_size, seq_len), dtype=np.int64)
        tokens = np.empty((batch_size, seq_len), dtype=np.int64)
        states[:, 0] = rng.integers(0, self.num_states, batch_size)
        for t in range(1, seq_len):
            probs = self._transition[states[:, t - 1]]
            cum = probs.cumsum(axis=1)
            u = rng.random((batch_size, 1))
            states[:, t] = (u > cum).sum(axis=1)
        for t in range(seq_len):
            probs = self._emissions[states[:, t]]
            cum = probs.cumsum(axis=1)
            u = rng.random((batch_size, 1))
            tokens[:, t] = (u > cum).sum(axis=1)
        return tokens, states
