"""Synthetic routing-distribution generators calibrated to Section 2.4.

Two empirical characteristics drive FlexMoE's design (Figure 3):

* **Skewness** — at any step, expert popularity follows a heavy-tailed
  distribution: the top 10 of 64 experts absorb ~75% of the tokens.
* **Smoothness / continuousness** — popularity drifts over training
  (routing fluctuation) but never jumps discontinuously between adjacent
  steps.

:class:`DriftingRoutingGenerator` reproduces both: expert logits follow an
Ornstein-Uhlenbeck random walk toward slowly *renewing* targets, so the
instantaneous distribution stays Zipf-skewed while the identity of the hot
experts churns smoothly over the run.
"""

from __future__ import annotations

import numpy as np

from repro.config import WorkloadConfig
from repro.exceptions import ConfigurationError
from repro.workload.trace import (
    COUNT_DTYPE,
    COUNT_LIMIT,
    MultiLayerTrace,
    RoutingTrace,
)


def stationary_skewed_probs(
    num_experts: int,
    skew: float,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Zipf-like expert popularity vector.

    Args:
        num_experts: Number of experts.
        skew: Zipf exponent; 0 yields the uniform distribution and ~1.3
            matches the paper's observed top-10/64 ~ 75% share.
        rng: When given, the rank-to-expert mapping is randomly permuted so
            hot experts are not always the low ids.

    Returns:
        Probability vector of length ``num_experts`` summing to 1.
    """
    if num_experts < 1:
        raise ConfigurationError("num_experts must be >= 1")
    if skew < 0:
        raise ConfigurationError("skew must be >= 0")
    ranks = np.arange(1, num_experts + 1, dtype=float)
    weights = ranks**-skew
    probs = weights / weights.sum()
    if rng is not None:
        probs = probs[rng.permutation(num_experts)]
    return probs


def expert_load_cdf(loads: np.ndarray) -> np.ndarray:
    """CDF over experts sorted by descending load (Figure 3a's y-axis).

    Args:
        loads: Per-expert token counts (one step).

    Returns:
        Array ``cdf`` where ``cdf[i]`` is the cumulative share of tokens
        handled by the ``i + 1`` heaviest experts.
    """
    loads = np.asarray(loads, dtype=float)
    total = loads.sum()
    if total <= 0:
        raise ConfigurationError("loads must contain at least one token")
    ordered = np.sort(loads)[::-1]
    return np.cumsum(ordered) / total


#: Shards drawn per multinomial call in :meth:`DriftingRoutingGenerator
#: .next_step`. Large enough to amortize the call; small enough that the
#: block's ``(GPUs, experts)`` draws stay a small transient beside the
#: step matrix (one draw of a whole 4096-GPU step would add 16 MB).
DRAW_BLOCK_GPUS = 256


class DriftingRoutingGenerator:
    """Streaming generator of smoothly drifting token assignments.

    Expert logits ``z`` evolve by an Ornstein-Uhlenbeck process

    ``z_{t+1} = z_t + theta * (target - z_t) + drift * noise``

    where ``target`` encodes a Zipf-skewed popularity ranking that is
    partially re-drawn on average every ``renewal_period`` steps. Softmax of
    the logits gives the step's expert probabilities; each source GPU then
    routes its equal share of the global batch multinomially.

    Args:
        num_experts: Experts per MoE layer.
        num_gpus: Source GPUs feeding the layer.
        config: Trace parameters (tokens/step, skew, drift, renewal, seed).
        locality_bias: In ``[0, 1)``; fraction of each GPU's probability
            mass concentrated on a GPU-specific preferred expert subset,
            modelling data-parallel shards with slightly different input
            distributions. 0 means all GPUs share the global distribution.
    """

    #: Mean-reversion rate of the OU process; kept < 1 for smoothness.
    THETA = 0.08

    def __init__(
        self,
        num_experts: int,
        num_gpus: int,
        config: WorkloadConfig,
        locality_bias: float = 0.0,
    ) -> None:
        if num_experts < 1:
            raise ConfigurationError("num_experts must be >= 1")
        if num_gpus < 1:
            raise ConfigurationError("num_gpus must be >= 1")
        if not 0 <= locality_bias < 1:
            raise ConfigurationError("locality_bias must be in [0, 1)")
        if config.tokens_per_step >= COUNT_LIMIT:
            raise ConfigurationError(
                f"tokens_per_step must be below 2**31 ({COUNT_LIMIT}): "
                "trace counts are int32"
            )
        self._num_experts = num_experts
        self._num_gpus = num_gpus
        self._config = config
        self._locality_bias = locality_bias
        self._rng = np.random.default_rng(config.seed)
        base = stationary_skewed_probs(num_experts, config.skew, self._rng)
        self._target_logits = np.log(base)
        self._logits = self._target_logits.copy()
        self._step_count = 0
        self._gpu_preferences = self._rng.integers(
            0, num_experts, size=(num_gpus, max(1, num_experts // 8))
        )

    def current_probs(self) -> np.ndarray:
        """Softmax of the current logits (global expert popularity)."""
        z = self._logits - self._logits.max()
        p = np.exp(z)
        return p / p.sum()

    def _maybe_renew_target(self) -> None:
        """Occasionally swap two experts' target popularity ranks.

        Swapping a hot and a cold target makes a previously cold expert heat
        up smoothly — the "from less to more" fluctuation of Figure 3b —
        without any discontinuity in the instantaneous distribution.
        """
        renew_prob = 1.0 / self._config.renewal_period
        if self._rng.random() < renew_prob:
            a, b = self._rng.choice(self._num_experts, size=2, replace=False)
            self._target_logits[[a, b]] = self._target_logits[[b, a]]

    def _anneal_factor(self) -> float:
        """Skew-annealing multiplier on the target logits.

        Raising a softmax's logits to a power ``f`` turns a Zipf exponent
        ``s`` into ``f * s``, so a linear ramp of the factor anneals the
        popularity skew from ``skew`` to ``final_skew`` over the trace.
        """
        cfg = self._config
        if cfg.final_skew is None or cfg.skew == 0:
            return 1.0
        progress = min(self._step_count / max(cfg.num_steps - 1, 1), 1.0)
        target_factor = cfg.final_skew / cfg.skew
        return 1.0 + (target_factor - 1.0) * progress

    def _maybe_spike(self) -> None:
        """Occasionally hit one expert with a sudden popularity spike.

        The spiked expert's logit jumps by ``log(spike_magnitude)`` — an
        instantaneous ``spike_magnitude``-fold popularity boost — and then
        decays back through the OU mean reversion over ~``1/THETA`` steps.
        Models abrupt routing shifts (domain changes mid-corpus) that the
        smooth drift alone never produces; disabled by default.
        """
        cfg = self._config
        if cfg.spike_period is None:
            return
        if self._rng.random() < 1.0 / cfg.spike_period:
            expert = int(self._rng.integers(self._num_experts))
            self._logits[expert] += np.log(cfg.spike_magnitude)

    def _advance_logits(self) -> None:
        self._maybe_renew_target()
        self._maybe_spike()
        noise = self._rng.normal(0.0, 1.0, self._num_experts)
        target = self._anneal_factor() * self._target_logits
        self._logits += (
            self.THETA * (target - self._logits) + self._config.drift * noise
        )
        self._step_count += 1

    def next_step(self) -> np.ndarray:
        """Generate the next step's assignment matrix ``I`` of shape
        ``(num_experts, num_gpus)``, int32 like every trace step."""
        assignment = np.empty(
            (self._num_experts, self._num_gpus), dtype=COUNT_DTYPE
        )
        self._draw_step(assignment)
        return assignment

    def _draw_step(self, out: np.ndarray) -> None:
        """Draw the next step's ``(num_experts, num_gpus)`` matrix into ``out``.

        One multinomial call per block of :data:`DRAW_BLOCK_GPUS` shards
        draws the same samples, and leaves the RNG in the same state, as
        one call per GPU in GPU order; each block is written straight
        into ``out``, so the draws add only a small transient to it.
        """
        self._advance_logits()
        global_probs = self.current_probs()
        per_gpu, remainder = divmod(self._config.tokens_per_step, self._num_gpus)
        counts = per_gpu + (np.arange(self._num_gpus) < remainder)
        for lo in range(0, self._num_gpus, DRAW_BLOCK_GPUS):
            gpus = slice(lo, lo + DRAW_BLOCK_GPUS)
            probs = self._gpu_probs(global_probs, gpus)
            out[:, gpus] = self._rng.multinomial(counts[gpus], probs).T

    def _gpu_probs(self, global_probs: np.ndarray, gpus: slice) -> np.ndarray:
        """Expert distribution of the shards of ``gpus``: ``(E,)`` when all
        shards share the global one, else one row per GPU."""
        if self._locality_bias == 0:
            return global_probs
        prefs = self._gpu_preferences[gpus]
        local = np.zeros((len(prefs), self._num_experts))
        local[np.arange(len(prefs))[:, None], prefs] = 1.0 / prefs.shape[1]
        mixed = (1 - self._locality_bias) * global_probs + self._locality_bias * local
        return mixed / mixed.sum(axis=1, keepdims=True)

    def generate(self, num_steps: int | None = None) -> RoutingTrace:
        """Materialize a :class:`RoutingTrace` of ``num_steps`` steps.

        Steps are drawn straight into the trace's one int32 buffer, which
        the trace then adopts: the ``(steps, E, G)`` history exists once.
        """
        steps = num_steps if num_steps is not None else self._config.num_steps
        if steps < 1:
            raise ConfigurationError("num_steps must be >= 1")
        frames = np.empty(
            (steps, self._num_experts, self._num_gpus), dtype=COUNT_DTYPE
        )
        self._draw_steps(frames)
        return RoutingTrace.adopt(frames)

    def _draw_steps(self, frames: np.ndarray) -> None:
        """Draw the next ``len(frames)`` steps into ``frames`` in order."""
        for frame in frames:
            self._draw_step(frame)


#: Seed offset between adjacent layers' generators. Large enough that the
#: per-layer popularity permutations are effectively independent.
LAYER_SEED_STRIDE = 7919


def make_multilayer_trace(
    num_layers: int,
    num_experts: int,
    num_gpus: int,
    config: WorkloadConfig | None = None,
    **overrides: object,
) -> MultiLayerTrace:
    """Generate one drifting routing trace per MoE layer.

    Each layer runs its own :class:`DriftingRoutingGenerator` with a
    layer-offset seed, so the Zipf popularity *ranking* is permuted
    independently per layer — the paper's observation that which experts
    run hot is uncorrelated across layers, which is exactly why per-layer
    placements diverge under the multi-layer scheduler.

    Args:
        num_layers: MoE layers in the transformer.
        num_experts: Experts per MoE layer.
        num_gpus: Source GPUs.
        config: Base workload config shared by every layer.
        **overrides: Field overrides applied to ``config``.
    """
    if num_layers < 1:
        raise ConfigurationError("num_layers must be >= 1")
    cfg = config or WorkloadConfig()
    if overrides:
        cfg = cfg.replace(**overrides)
    generators = [
        DriftingRoutingGenerator(
            num_experts,
            num_gpus,
            cfg.replace(seed=cfg.seed + layer * LAYER_SEED_STRIDE),
        )
        for layer in range(num_layers)
    ]
    # Each layer draws straight into its slice of the one stacked buffer.
    buffer = np.empty(
        (num_layers, cfg.num_steps, num_experts, num_gpus), dtype=COUNT_DTYPE
    )
    for generator, frames in zip(generators, buffer):
        generator._draw_steps(frames)
    return MultiLayerTrace.adopt(buffer)
