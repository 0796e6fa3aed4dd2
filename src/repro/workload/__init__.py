"""Workload substrate: routing traces and synthetic datasets.

The scheduling problem FlexMoE solves only observes the *routing
distribution* — how many tokens each source GPU sends to each expert at each
step. This package provides:

* :mod:`repro.workload.trace` — the :class:`RoutingTrace` container holding
  per-step ``I[e, g]`` token-assignment matrices;
* :mod:`repro.workload.synthetic` — generators producing traces with the
  skew and smooth drift the paper measures on real GPT-MoE training
  (Figure 3);
* :mod:`repro.workload.datasets` — synthetic datasets for the real NumPy
  training runs behind the model-quality experiments (Table 2, Figure 2).
"""

from repro.workload.datasets import (
    ClusterClassificationDataset,
    MarkovLMDataset,
)
from repro.workload.synthetic import (
    DriftingRoutingGenerator,
    expert_load_cdf,
    make_multilayer_trace,
    stationary_skewed_probs,
)
from repro.workload.trace import MultiLayerTrace, RoutingTrace

__all__ = [
    "ClusterClassificationDataset",
    "DriftingRoutingGenerator",
    "MarkovLMDataset",
    "MultiLayerTrace",
    "RoutingTrace",
    "expert_load_cdf",
    "make_multilayer_trace",
    "stationary_skewed_probs",
]
