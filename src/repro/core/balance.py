"""Workload-balance metrics (Eq. 6 and the Figure 6a ablation).

The paper's trigger metric is the **balance ratio**: the heaviest GPU's
token load divided by the mean per-GPU load. Because the MoE layer executes
synchronously, the slowest GPU dominates the step, making the max-based
ratio a direct proxy for wasted time. The ablation alternative is the
variance of per-GPU loads, which reacts to global spread instead of the
straggler.

Both metrics consume the *per-GPU* loads induced by routing tokens onto the
current placement — not the raw per-expert loads — since replication changes
who actually computes what.
"""

from __future__ import annotations

import numpy as np

from repro.core.placement import Placement
from repro.exceptions import RoutingError


def gpu_loads_even_split(assignment: np.ndarray, placement: Placement) -> np.ndarray:
    """Per-GPU loads assuming each expert's tokens split evenly over its
    vExperts (the vExpert contract of Section 3.2).

    This is the idealized load the Policy Maker reasons about before routing
    has materialized: expert ``e`` contributes
    ``I_e * counts[e, g] / n_e`` tokens to GPU ``g``.

    Args:
        assignment: ``I`` matrix ``(experts, src_gpus)`` of token counts.
        placement: Current expert-to-device mapping.
    """
    assignment = np.asarray(assignment)
    if assignment.ndim != 2:
        raise RoutingError("assignment must be (experts, gpus)")
    expert_totals = assignment.sum(axis=1).astype(float)
    counts = placement.counts_view.astype(float)
    replicas = counts.sum(axis=1)
    if (replicas < 1).any():
        raise RoutingError("placement has an expert with no vExpert")
    share = counts / replicas[:, None]
    return expert_totals @ share


def balance_ratio(gpu_loads: np.ndarray) -> float:
    """Eq. 6: max per-GPU load over mean per-GPU load.

    Returns 1.0 for a perfectly balanced (or empty) step; always >= 1.
    """
    loads = np.asarray(gpu_loads, dtype=float)
    if loads.ndim != 1 or loads.size == 0:
        raise RoutingError("gpu_loads must be a non-empty vector")
    if (loads < 0).any():
        raise RoutingError("gpu_loads must be non-negative")
    mean = loads.mean()
    if mean == 0:
        return 1.0
    return float(loads.max() / mean)


def variance_ratio(gpu_loads: np.ndarray) -> float:
    """Ablation metric: variance of normalized per-GPU loads.

    Loads are normalized by their mean so the metric is scale-free and can
    be compared against a fixed threshold like the balance ratio. Returns 0
    for a perfectly balanced (or empty) step.
    """
    loads = np.asarray(gpu_loads, dtype=float)
    if loads.ndim != 1 or loads.size == 0:
        raise RoutingError("gpu_loads must be a non-empty vector")
    if (loads < 0).any():
        raise RoutingError("gpu_loads must be non-negative")
    mean = loads.mean()
    if mean == 0:
        return 0.0
    normalized = loads / mean
    return float(normalized.var())


def metric_value(name: str, gpu_loads: np.ndarray) -> float:
    """Dispatch helper used by the scheduler config (``"max"``/``"variance"``)."""
    if name == "max":
        return balance_ratio(gpu_loads)
    if name == "variance":
        return variance_ratio(gpu_loads)
    raise RoutingError(f"unknown balance metric {name!r}")


def metric_threshold_exceeded(name: str, value: float, threshold: float) -> bool:
    """Whether ``value`` of metric ``name`` should trigger scheduling.

    The balance ratio's natural floor is 1 (threshold interpreted as-is);
    the variance's floor is 0, so its trigger compares against
    ``threshold - 1`` to keep one config knob meaningful for both.
    """
    if name == "max":
        return value > threshold
    if name == "variance":
        return value > (threshold - 1.0)
    raise RoutingError(f"unknown balance metric {name!r}")
