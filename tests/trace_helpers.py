"""Test-side trace helpers: one-call single-layer trace construction and
the Figure 3 skew measure (the share of load the hottest experts take)
that the workload tests check the generators against."""

import numpy as np

from repro.config import WorkloadConfig
from repro.workload.synthetic import DriftingRoutingGenerator
from repro.workload.trace import RoutingTrace


def make_trace(
    num_experts: int,
    num_gpus: int,
    config: WorkloadConfig | None = None,
    **overrides: object,
) -> RoutingTrace:
    """Draw one layer's trace; ``overrides`` replace ``config`` fields."""
    cfg = config or WorkloadConfig()
    if overrides:
        cfg = cfg.replace(**overrides)
    return DriftingRoutingGenerator(num_experts, num_gpus, cfg).generate()


def top_share(probs: np.ndarray, k: int) -> float:
    """Fraction of total load captured by the ``k`` most popular experts."""
    return float(np.sort(np.asarray(probs, dtype=float))[::-1][:k].sum())
