"""Efficiency metrics aggregated over simulated training runs.

Defines the two axes of the paper's Figure 7a and the utilization number of
Figure 2:

* **token efficiency** — fraction of gate-assigned tokens processed by
  their chosen expert (drops and diversions reduce it);
* **expert efficiency** — mean-over-max GPU compute load: the share of the
  synchronized step spent on meaningful computation;
* **GPU utilization** — mean fraction of measured step time the GPUs spent
  computing (includes communication overheads, unlike expert efficiency).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.baselines.base import StepResult
from repro.exceptions import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.pipeline import PipelineStepResult


@dataclass(frozen=True)
class EfficiencyTrajectory:
    """Per-step efficiency series for one system (Figure 7a's trajectory).

    Attributes:
        token_efficiency: Fraction in ``[0, 1]`` per step.
        expert_efficiency: Fraction in ``(0, 1]`` per step.
    """

    token_efficiency: np.ndarray
    expert_efficiency: np.ndarray

    def endpoint(self, window: int = 10) -> tuple[float, float]:
        """Late-training operating point: mean of the last ``window`` steps."""
        w = min(window, len(self.token_efficiency))
        if w == 0:
            raise SimulationError("empty trajectory")
        return (
            float(self.token_efficiency[-w:].mean()),
            float(self.expert_efficiency[-w:].mean()),
        )

    def distance_to_ideal(self, window: int = 10) -> float:
        """Euclidean distance from the late operating point to (1, 1)."""
        tok, exp = self.endpoint(window)
        return float(np.hypot(1.0 - tok, 1.0 - exp))


def trajectory_from_results(results: list[StepResult]) -> EfficiencyTrajectory:
    """Build the per-step efficiency trajectory from step results."""
    if not results:
        raise SimulationError("no step results")
    return EfficiencyTrajectory(
        token_efficiency=np.array([r.token_efficiency for r in results]),
        expert_efficiency=np.array([r.expert_efficiency for r in results]),
    )


def summarize_run(results: list[StepResult]) -> dict[str, float]:
    """Aggregate statistics of one run, keyed by metric name."""
    if not results:
        raise SimulationError("no step results")
    step_times = np.array([r.step_time for r in results])
    return {
        "steps": float(len(results)),
        "mean_step_time": float(step_times.mean()),
        "p95_step_time": float(np.percentile(step_times, 95)),
        "total_time": float(step_times.sum()),
        "mean_token_efficiency": float(
            np.mean([r.token_efficiency for r in results])
        ),
        "mean_expert_efficiency": float(
            np.mean([r.expert_efficiency for r in results])
        ),
        "mean_utilization": float(np.mean([r.utilization for r in results])),
        "mean_balance": float(np.mean([r.balance for r in results])),
        "dropped_tokens": float(sum(r.dropped_tokens for r in results)),
        "diverted_tokens": float(sum(r.diverted_tokens for r in results)),
        "scheduling_actions": float(sum(r.scheduling_actions for r in results)),
    }


def pipeline_phase_breakdown(
    results: Sequence["PipelineStepResult"],
) -> dict[str, float]:
    """Mean overlap-aware phase decomposition of a multi-layer run.

    Averages the :meth:`~repro.runtime.executor.PipelineStepTiming.breakdown`
    of every step: dense compute, expert compute, exposed vs hidden
    All-to-All, gradient sync and adjustment blocking — the step-time
    anatomy the paper's pipeline overlaps.
    """
    if not results:
        raise SimulationError("no step results")
    breakdowns = [r.timing.breakdown() for r in results]
    return {
        key: float(np.mean([b[key] for b in breakdowns]))
        for key in breakdowns[0]
    }


def summarize_pipeline_run(
    results: Sequence["PipelineStepResult"],
) -> dict[str, float]:
    """Aggregate statistics of one multi-layer pipelined run."""
    if not results:
        raise SimulationError("no step results")
    step_times = np.array([r.step_time for r in results])
    summary = {
        "steps": float(len(results)),
        "moe_layers": float(results[0].timing.num_layers),
        "mean_step_time": float(step_times.mean()),
        "p95_step_time": float(np.percentile(step_times, 95)),
        "total_time": float(step_times.sum()),
        "mean_token_efficiency": float(
            np.mean([r.token_efficiency for r in results])
        ),
        "mean_expert_efficiency": float(
            np.mean([r.expert_efficiency for r in results])
        ),
        "mean_utilization": float(
            np.mean([r.timing.compute_utilization for r in results])
        ),
        "mean_overlap_savings": float(
            np.mean([r.timing.overlap_savings for r in results])
        ),
        "mean_locality": float(
            np.mean([r.layer_locality.mean() for r in results])
        ),
        "scheduling_actions": float(
            sum(r.scheduling_actions for r in results)
        ),
    }
    summary.update(
        {f"mean_{k}": v for k, v in pipeline_phase_breakdown(results).items()
         if k != "step_time"}
    )
    return summary
