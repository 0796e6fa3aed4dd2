"""Real-training harness for the model-quality experiments.

Table 2 and Figure 2 are *statistical* claims: dropping tokens (capacity)
or forcing balanced routing (large balance-loss coefficient) measurably
hurts model quality. These cannot be simulated — they require actually
training a model — so this module trains the NumPy MoE stack on the
synthetic datasets and measures:

* top-1/top-5 accuracy of :class:`~repro.model.transformer.MoEClassifier`
  (the Swin-MoE stand-in, Figure 2 / Table 2 right);
* validation perplexity of
  :class:`~repro.model.transformer.MoELanguageModel` (the BERT/GPT-MoE
  stand-in, Table 2 left);
* steps-to-target under different capacity factors, which calibrates the
  convergence model's ``alpha`` (Figure 5's statistical-efficiency leg);
* the per-step expert-load trace, which feeds the systems simulator so the
  same run yields Figure 2's GPU-utilization axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import SimulationError
from repro.model.losses import (
    perplexity_from_loss,
    softmax_cross_entropy,
    top_k_accuracy,
)
from repro.model.optimizer import Adam
from repro.model.transformer import MoEClassifier, MoELanguageModel
from repro.workload.datasets import ClusterClassificationDataset, MarkovLMDataset
from repro.workload.trace import RoutingTrace

#: Held-out examples :func:`train_classifier` evaluates on.
EVAL_SIZE = 1024
#: Held-out batches :func:`train_language_model` evaluates on.
EVAL_BATCHES = 8


@dataclass
class QualityRunResult:
    """Outcome of one real training run.

    Attributes:
        metric_name: ``"top1"``/``"top5"`` accuracy or ``"ppl"``.
        final_metric: Evaluation metric at the end of training.
        loss_history: Training loss per step.
        eval_history: (step, metric) pairs from periodic evaluation.
        dropped_fraction: Mean fraction of token-slots dropped.
        balance_loss: Mean auxiliary balance loss observed.
        expert_load_history: Per-step per-expert token counts of the first
            MoE layer (feeds the simulator).
        steps_to_target: First step whose evaluation metric reached the
            target, or ``None`` if never reached.
    """

    metric_name: str
    final_metric: float
    loss_history: list[float]
    eval_history: list[tuple[int, float]]
    dropped_fraction: float
    balance_loss: float
    expert_load_history: np.ndarray
    steps_to_target: int | None = None

    def routing_trace(self, num_gpus: int, seed: int = 0) -> RoutingTrace:
        """Expert-load history as a simulator trace.

        Loads are split across ``num_gpus`` synthetic sources
        multinomially, mirroring data-parallel sharding of the batch.
        """
        rng = np.random.default_rng(seed)
        steps, experts = self.expert_load_history.shape
        frames = np.zeros((steps, experts, num_gpus), dtype=np.int64)
        for t in range(steps):
            for e in range(experts):
                count = int(self.expert_load_history[t, e])
                if count:
                    frames[t, e] = rng.multinomial(
                        count, np.full(num_gpus, 1.0 / num_gpus)
                    )
        return RoutingTrace.adopt(frames)


def _record_moe(model) -> tuple[np.ndarray, int, int, float]:
    """(first-layer loads, dropped, assigned, balance loss) of last forward."""
    stats = model.moe_stats()
    if not stats:
        raise SimulationError("model has no MoE layers")
    first = stats[0]
    dropped = sum(s.dropped_slots for s in stats)
    assigned = sum(int(s.expert_counts.sum()) for s in stats)
    balance = float(np.mean([s.balance_loss for s in stats]))
    return first.expert_counts.copy(), dropped, assigned, balance


def train_classifier(
    dataset: ClusterClassificationDataset,
    capacity_factor: float | None = None,
    balance_coef: float = 0.0,
    num_experts: int = 8,
    steps: int = 300,
    batch_size: int = 128,
    lr: float = 3e-3,
    eval_every: int = 50,
    target_metric: float | None = None,
    metric: str = "top1",
    d_model: int = 32,
    num_layers: int = 4,
    seed: int = 0,
) -> QualityRunResult:
    """Train the Swin-MoE stand-in and measure accuracy.

    Args:
        dataset: Input distribution.
        capacity_factor: ``None`` keeps every token (FlexMoE contract);
            a float reproduces DeepSpeed capacity truncation.
        balance_coef: Balance-loss coefficient (Figure 2's x-axis).
        target_metric: When set, records the first evaluation step at which
            the metric reaches it.
        metric: ``"top1"`` or ``"top5"``.
    """
    if metric not in ("top1", "top5"):
        raise SimulationError(f"unknown metric {metric!r}")
    model = MoEClassifier(
        input_dim=dataset.input_dim,
        num_classes=dataset.num_classes,
        d_model=d_model,
        num_layers=num_layers,
        num_experts=num_experts,
        balance_coef=balance_coef,
        capacity_factor=capacity_factor,
        seed=seed,
    )
    optimizer = Adam(model.parameters(), lr=lr)
    data_rng = np.random.default_rng(seed + 1)
    eval_rng = np.random.default_rng(seed + 2)
    eval_x, eval_y, _ = dataset.sample(EVAL_SIZE, eval_rng)
    k = 1 if metric == "top1" else 5

    loss_history: list[float] = []
    eval_history: list[tuple[int, float]] = []
    loads: list[np.ndarray] = []
    dropped_total = 0
    assigned_total = 0
    balance_sum = 0.0
    steps_to_target: int | None = None

    for step in range(steps):
        x, y, _ = dataset.sample(batch_size, data_rng)
        logits = model.forward(x)
        loss, grad = softmax_cross_entropy(logits, y)
        model.zero_grad()
        model.backward(grad)
        optimizer.step()
        loss_history.append(loss)
        first_loads, dropped, assigned, balance = _record_moe(model)
        loads.append(first_loads)
        dropped_total += dropped
        assigned_total += assigned
        balance_sum += balance
        if (step + 1) % eval_every == 0 or step == steps - 1:
            model.set_training(False)
            eval_logits = model.forward(eval_x)
            model.set_training(True)
            value = top_k_accuracy(eval_logits, eval_y, k)
            eval_history.append((step + 1, value))
            if (
                target_metric is not None
                and steps_to_target is None
                and value >= target_metric
            ):
                steps_to_target = step + 1

    return QualityRunResult(
        metric_name=metric,
        final_metric=eval_history[-1][1],
        loss_history=loss_history,
        eval_history=eval_history,
        dropped_fraction=dropped_total / max(assigned_total, 1),
        balance_loss=balance_sum / steps,
        expert_load_history=np.stack(loads),
        steps_to_target=steps_to_target,
    )


def train_language_model(
    dataset: MarkovLMDataset,
    capacity_factor: float | None = None,
    balance_coef: float = 0.0,
    num_experts: int = 8,
    steps: int = 300,
    batch_size: int = 32,
    seq_len: int = 32,
    lr: float = 3e-3,
    eval_every: int = 50,
    target_metric: float | None = None,
    d_model: int = 32,
    num_layers: int = 4,
    seed: int = 0,
) -> QualityRunResult:
    """Train the BERT/GPT-MoE stand-in and measure validation perplexity.

    ``target_metric`` (when set) is a perplexity *ceiling*: the run records
    the first evaluation at or below it.
    """
    model = MoELanguageModel(
        vocab_size=dataset.vocab_size,
        d_model=d_model,
        num_layers=num_layers,
        num_experts=num_experts,
        balance_coef=balance_coef,
        capacity_factor=capacity_factor,
        seed=seed,
    )
    optimizer = Adam(model.parameters(), lr=lr)
    data_rng = np.random.default_rng(seed + 1)
    eval_rng = np.random.default_rng(seed + 2)
    eval_sets = [
        dataset.sample(batch_size, seq_len, eval_rng)[0]
        for _ in range(EVAL_BATCHES)
    ]

    loss_history: list[float] = []
    eval_history: list[tuple[int, float]] = []
    loads: list[np.ndarray] = []
    dropped_total = 0
    assigned_total = 0
    balance_sum = 0.0
    steps_to_target: int | None = None

    def _evaluate() -> float:
        model.set_training(False)
        nll = 0.0
        for tokens in eval_sets:
            logits = model.forward(tokens[:, :-1])
            flat = logits.reshape(-1, dataset.vocab_size)
            targets = tokens[:, 1:].reshape(-1)
            loss, _ = softmax_cross_entropy(flat, targets)
            nll += loss
        model.set_training(True)
        return perplexity_from_loss(nll / len(eval_sets))

    for step in range(steps):
        tokens, _ = dataset.sample(batch_size, seq_len, data_rng)
        logits = model.forward(tokens[:, :-1])
        flat = logits.reshape(-1, dataset.vocab_size)
        targets = tokens[:, 1:].reshape(-1)
        loss, grad = softmax_cross_entropy(flat, targets)
        model.zero_grad()
        model.backward(grad.reshape(logits.shape))
        optimizer.step()
        loss_history.append(loss)
        first_loads, dropped, assigned, balance = _record_moe(model)
        loads.append(first_loads)
        dropped_total += dropped
        assigned_total += assigned
        balance_sum += balance
        if (step + 1) % eval_every == 0 or step == steps - 1:
            ppl = _evaluate()
            eval_history.append((step + 1, ppl))
            if (
                target_metric is not None
                and steps_to_target is None
                and ppl <= target_metric
            ):
                steps_to_target = step + 1

    return QualityRunResult(
        metric_name="ppl",
        final_metric=eval_history[-1][1],
        loss_history=loss_history,
        eval_history=eval_history,
        dropped_fraction=dropped_total / max(assigned_total, 1),
        balance_loss=balance_sum / steps,
        expert_load_history=np.stack(loads),
        steps_to_target=steps_to_target,
    )
