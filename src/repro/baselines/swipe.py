"""SWIPE (BaGuaLu): strict balance by rewriting the gate's decisions.

SWIPE "improves expert efficiency by modifying the gating algorithm to
re-assign inputs to other experts for strict load balance. However, this
approach changes the relations between tokens and experts, thus leads to
low token efficiency" (Section 5.4).

Implementation: every step, each expert's demand above the fair share is
diverted to the most underloaded experts until all experts carry exactly
the fair share (+-1 token of rounding). Diverted tokens still execute —
expert efficiency is perfect — but they were processed by the *wrong*
expert, so they count against token efficiency.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import MoESystem, StepResult, SystemContext
from repro.core.placement import Placement
from repro.core.router import FlexibleTokenRouter


def rebalance_strict(assignment: np.ndarray) -> tuple[np.ndarray, int]:
    """Divert overflow tokens to underloaded experts for exact balance.

    Returns:
        ``(balanced_assignment, diverted_tokens)``. Column sums (tokens per
        source GPU) are preserved — tokens change *expert*, not origin.
    """
    assignment = np.asarray(assignment).astype(np.int64, copy=True)
    num_experts, num_gpus = assignment.shape
    totals = assignment.sum(axis=1)
    grand_total = int(totals.sum())
    base, extra = divmod(grand_total, num_experts)
    targets = np.full(num_experts, base, dtype=np.int64)
    # Give the +1 remainder slots to the currently heaviest experts so the
    # fewest tokens move.
    for expert in np.argsort(-totals, kind="stable")[:extra]:
        targets[expert] += 1

    surplus = totals - targets
    diverted = int(np.maximum(surplus, 0).sum())
    givers = [int(e) for e in np.flatnonzero(surplus > 0)]
    takers = [int(e) for e in np.flatnonzero(surplus < 0)]
    for giver in givers:
        need_to_give = int(surplus[giver])
        # Remove proportionally across this expert's source GPUs.
        row = assignment[giver]
        while need_to_give > 0 and takers:
            taker = takers[0]
            can_take = int(-surplus[taker])
            moved = min(need_to_give, can_take)
            _move_tokens(assignment, giver, taker, moved)
            surplus[giver] -= moved
            surplus[taker] += moved
            need_to_give -= moved
            if surplus[taker] == 0:
                takers.pop(0)
    return assignment, diverted


def _move_tokens(assignment: np.ndarray, giver: int, taker: int, count: int) -> None:
    """Move ``count`` tokens from ``giver``'s row to ``taker``'s, preserving
    per-GPU origin counts (largest sources give first)."""
    remaining = count
    order = np.argsort(-assignment[giver], kind="stable")
    for gpu in order:
        if remaining == 0:
            break
        take = min(int(assignment[giver, gpu]), remaining)
        assignment[giver, gpu] -= take
        assignment[taker, gpu] += take
        remaining -= take


class SwipeSystem(MoESystem):
    """Strict-balance gating over static expert parallelism."""

    name = "SWIPE"

    def __init__(self, context: SystemContext) -> None:
        super().__init__(context)
        self._placement = Placement.expert_parallel(
            context.model.num_experts, context.topology.num_gpus
        )
        self._router = FlexibleTokenRouter()

    @property
    def placement(self) -> Placement:
        return self._placement

    def step(self, assignment: np.ndarray, step_index: int) -> StepResult:
        assignment = self._check_assignment(assignment)
        assigned = int(assignment.sum())
        balanced, diverted = rebalance_strict(assignment)
        plan = self._router.route(balanced, self._placement)
        timing = self._ctx.executor.execute(plan.flow, self._placement)
        return StepResult(
            timing=timing,
            assigned_tokens=assigned,
            processed_tokens=assigned - diverted,
            diverted_tokens=diverted,
            gpu_loads=plan.gpu_loads,
        )
