"""DeepSpeed-style expert parallelism with capacity-based token dropping.

The GShard/DeepSpeed lineage the paper compares against (Section 5.1):
experts are striped one-deep over GPUs; each expert enforces a capacity of
``capacity_factor * tokens / num_experts`` per step; tokens beyond capacity
are dropped (skipped via the residual connection). Dropping keeps the
heaviest expert's cost bounded — the smallest iteration time in the paper's
Figure 5 — but costs model quality, captured by token efficiency < 1.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import MoESystem, StepResult, SystemContext
from repro.core.placement import Placement
from repro.core.router import FlexibleTokenRouter
from repro.exceptions import SimulationError


def apply_capacity(
    assignment: np.ndarray, capacity: int
) -> tuple[np.ndarray, int]:
    """Cap each expert's tokens at ``capacity``, dropping overflow.

    Overflow is removed proportionally across source GPUs (largest-remainder
    rounding), matching the per-rank capacity enforcement of real systems.

    Returns:
        ``(capped_assignment, dropped_tokens)``.
    """
    if capacity < 0:
        raise SimulationError("capacity must be >= 0")
    assignment = np.asarray(assignment).astype(np.int64, copy=True)
    dropped = 0
    for expert in range(assignment.shape[0]):
        row = assignment[expert]
        total = int(row.sum())
        overflow = total - capacity
        if overflow <= 0:
            continue
        exact = overflow * row / total
        cut = np.floor(exact).astype(np.int64)
        leftover = overflow - int(cut.sum())
        order = np.argsort(-(exact - cut), kind="stable")
        for idx in order:
            if leftover == 0:
                break
            if row[idx] - cut[idx] > 0:
                cut[idx] += 1
                leftover -= 1
        assignment[expert] = row - cut
        dropped += overflow
    return assignment, dropped


#: Sentinel distinguishing "not given" from an explicit ``None``.
_FROM_MODEL = object()


class ExpertParallelSystem(MoESystem):
    """Static expert parallelism + expert capacity (the DeepSpeed baseline).

    Args:
        context: Shared substrate.
        capacity_factor: Multiplier on the fair per-expert share defining
            the capacity; ``None`` disables dropping (pure GShard EP).
            Defaults to the model config's ``capacity_factor``.
    """

    name = "DeepSpeed"

    def __init__(
        self,
        context: SystemContext,
        capacity_factor: float | None = _FROM_MODEL,  # type: ignore[assignment]
    ) -> None:
        super().__init__(context)
        if capacity_factor is _FROM_MODEL:
            capacity_factor = context.model.capacity_factor
        self._capacity_factor = capacity_factor
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
        if self._capacity_factor is not None:
            capacity = int(
                np.ceil(
                    self._capacity_factor
                    * assigned
                    / self._ctx.model.num_experts
                )
            )
            capped, dropped = apply_capacity(assignment, capacity)
        else:
            capped, dropped = assignment, 0
        plan = self._router.route(capped, self._placement)
        timing = self._ctx.executor.execute(plan.flow, self._placement)
        return StepResult(
            timing=timing,
            assigned_tokens=assigned,
            processed_tokens=assigned - dropped,
            dropped_tokens=dropped,
            gpu_loads=plan.gpu_loads,
        )
