"""FasterMoE's dynamic shadowing baseline.

FasterMoE (He et al., PPoPP'22) "proposed the shadowing strategy to
replicate the popular expert among all GPUs" (Section 5.1). Shadowing is
coarse-grained — an expert lives on **one** GPU or on **every** GPU — which
the paper identifies as its weakness: replicas must broadcast parameters
and synchronize gradients across the whole cluster, so it "falls back to a
sub-optimal solution" and "suffers from the global synchronization of
expert replicas" as GPU counts grow.

Each step the system greedily shadows the hottest experts while its cost
model says the straggler-time saved exceeds the broadcast + global-sync
overhead. No tokens are dropped (token efficiency is always 100%).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.baselines.base import MoESystem, StepResult, SystemContext
from repro.core.cost_model import MoECostModel
from repro.core.placement import Placement
from repro.core.router import FlexibleTokenRouter

#: Upper bound on the experts shadowed in one step.
MAX_SHADOWED = 8


class FasterMoESystem(MoESystem):
    """Expert parallelism + per-step all-GPU shadowing of hot experts.

    Args:
        context: Shared substrate.
    """

    name = "FasterMoE"

    def __init__(self, context: SystemContext) -> None:
        super().__init__(context)
        self._router = FlexibleTokenRouter()
        self._cost_model = MoECostModel(context.profile, context.model)
        self._base_counts = Placement.expert_parallel(
            context.model.num_experts, context.topology.num_gpus
        ).counts

    # ------------------------------------------------------------------
    # Shadow selection
    # ------------------------------------------------------------------
    def _placement_with_shadows(self, shadowed: set[int]) -> Placement:
        counts = self._base_counts.copy()
        for expert in shadowed:
            counts[expert, :] = 1
        slots = int(counts.sum(axis=0).max())
        return Placement(counts, slots)

    def _broadcast_estimate(self, num_shadowed: int) -> float:
        """Modelled per-step cost of broadcasting shadowed parameters."""
        if num_shadowed == 0:
            return 0.0
        all_gpus = list(range(self._ctx.topology.num_gpus))
        one = self._ctx.collectives.broadcast_time(
            self._ctx.model.expert_bytes, root=0, group=all_gpus
        )
        return num_shadowed * one

    def select_shadows(self, assignment: np.ndarray) -> set[int]:
        """Greedy shadow set: add hottest experts while modelled time improves."""
        loads = assignment.sum(axis=1)
        order = np.argsort(-loads, kind="stable")
        shadowed: set[int] = set()
        placement = self._placement_with_shadows(shadowed)
        plan = self._router.route_fractional(assignment, placement)
        best_time = self._cost_model.step_time(plan, placement)
        for expert in order[: MAX_SHADOWED * 2]:
            candidate = shadowed | {int(expert)}
            placement = self._placement_with_shadows(candidate)
            plan = self._router.route_fractional(assignment, placement)
            time = self._cost_model.step_time(
                plan, placement
            ) + self._broadcast_estimate(len(candidate))
            if time < best_time:
                best_time = time
                shadowed = candidate
                if len(shadowed) >= MAX_SHADOWED:
                    break
            else:
                break  # loads are sorted: colder experts help even less
        return shadowed

    # ------------------------------------------------------------------
    # Step
    # ------------------------------------------------------------------
    def step(self, assignment: np.ndarray, step_index: int) -> StepResult:
        assignment = self._check_assignment(assignment)
        assigned = int(assignment.sum())
        shadowed = self.select_shadows(assignment)
        placement = self._placement_with_shadows(shadowed)
        plan = self._router.route(assignment, placement)
        timing = self._ctx.executor.execute(plan.flow, placement)
        # FasterMoE prefetches shadow parameters while the previous layers
        # compute; only the broadcast time exceeding the step blocks it.
        broadcast = self._real_broadcast_time(len(shadowed))
        blocking = max(0.0, broadcast - timing.step_time)
        if blocking > 0:
            timing = dataclasses.replace(
                timing, adjustment_blocking=blocking
            )
        return StepResult(
            timing=timing,
            assigned_tokens=assigned,
            processed_tokens=assigned,
            gpu_loads=plan.gpu_loads,
            scheduling_actions=len(shadowed),
        )

    def _real_broadcast_time(self, num_shadowed: int) -> float:
        if num_shadowed == 0:
            return 0.0
        all_gpus = list(range(self._ctx.topology.num_gpus))
        one = self._ctx.collectives.broadcast_time(
            self._ctx.model.expert_bytes, root=0, group=all_gpus
        )
        return num_shadowed * one
