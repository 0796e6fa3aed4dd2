"""Dense view of a routing plan, for tests that index single routes."""

from __future__ import annotations

import numpy as np

from repro.core.router import RoutingPlan


def dense_routes(plan: RoutingPlan) -> np.ndarray:
    """The ``(experts, src, dst)`` route tensor of ``plan``.

    O(E * G^2) memory: tests only. Integer plans give an integer tensor,
    fractional plans a float one.
    """
    num_experts, num_gpus = plan.local.shape
    routes = np.zeros(
        (num_experts, num_gpus, num_gpus), dtype=plan.local.dtype
    )
    diag = np.arange(num_gpus)
    routes[:, diag, diag] = plan.local
    routes[plan.spill.expert, plan.spill.src, plan.spill.dst] = (
        plan.spill.tokens
    )
    return routes
