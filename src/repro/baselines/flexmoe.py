"""FlexMoE: the full system, wiring the core components together.

Per step:

1. (optional) the gate flow-controller admits the assignment, deferring
   transient spikes the placement cannot absorb yet;
2. the Scheduler (Algorithm 1) monitors the balance ratio on the *target*
   placement and emits beneficial Expand/Shrink pairs plus background
   Migrates;
3. emitted actions enter the best-effort adjustment pipeline: their
   parameter transfers and communicator-group creations ride a separate
   stream whose bandwidth budget is the training step itself, and the
   *active* placement only commits them once that work is paid for
   (Section 4, "Best-Effort Adjustment") — training never blocks;
4. the flexible token router (Algorithm 3) spreads tokens over the active
   placement's replicas — locality first, then proportional to available
   capacity;
5. the step executes on the ground-truth executor.

With ``best_effort=False`` (Figure 6b-style ablation) actions instead apply
immediately and their full transfer time blocks the step.

FlexMoE never drops or diverts tokens: token efficiency is 100% by
construction, the property behind its model-quality win (Table 2).

The per-layer mechanics (scheduler state, best-effort stream, routing) live
in :class:`~repro.runtime.pipeline.LayerPipeline`; this class wraps ONE of
them in the :class:`~repro.baselines.base.MoESystem` interface. The
multi-layer engine (:class:`~repro.runtime.pipeline.MultiLayerFlexMoEEngine`)
runs one pipeline per MoE layer of the transformer.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.baselines.base import MoESystem, StepResult, SystemContext
from repro.config import SchedulerConfig
from repro.core.flow_control import GateFlowController
from repro.core.placement import Placement
from repro.core.scheduler import Scheduler
from repro.runtime.pipeline import LayerPipeline


class FlexMoESystem(MoESystem):
    """Dynamic fine-grained replicated expert parallelism (the paper).

    Args:
        context: Shared substrate.
        scheduler_config: Scheduler knobs; defaults to the paper's dynamic
            max-ratio trigger.
        flow_control: Optional gate flow-controller. ``None`` (default)
            disables deferral, matching the paper's main experiments.
    """

    name = "FlexMoE"

    def __init__(
        self,
        context: SystemContext,
        scheduler_config: SchedulerConfig | None = None,
        flow_control: GateFlowController | None = None,
    ) -> None:
        super().__init__(context)
        self._scheduler_config = scheduler_config or SchedulerConfig()
        self._flow_control = flow_control
        # The adjustment stream overlaps the *whole model's* training step,
        # of which the simulated MoE layer is one slice: the stream budget
        # per simulated step is scaled by the number of MoE layers.
        self._overlap_factor = context.model.num_moe_layers
        self._build()

    def _build(self) -> None:
        ctx = self._ctx
        self._layer = LayerPipeline(
            model=ctx.model,
            topology=ctx.topology,
            profile=ctx.profile,
            collectives=ctx.collectives,
            scheduler_config=self._scheduler_config,
            group_cache=ctx.executor.group_cache,
        )
        self._scheduler_config = self._layer.config

    def reset(self) -> None:
        # Communicator warmth gates when pending adjustments commit (a
        # cached group's creation is free), so a warm cache would make a
        # replayed run adjust earlier than the original. Restore the
        # cold-start condition along with the placement state.
        cache = self._ctx.executor.group_cache
        if cache is not None:
            cache.clear()
        self._build()
        if self._flow_control is not None:
            self._flow_control = GateFlowController()

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def placement(self) -> Placement:
        """The active placement (what routing currently uses)."""
        return self._layer.active_placement

    @property
    def target_placement(self) -> Placement:
        """The scheduler's goal placement (active + pending actions)."""
        return self._layer.target_placement

    @property
    def scheduler(self) -> Scheduler:
        return self._layer.scheduler

    @property
    def pending_adjustments(self) -> int:
        """Actions emitted but not yet committed to the active placement."""
        return self._layer.pending_actions

    # ------------------------------------------------------------------
    # Step
    # ------------------------------------------------------------------
    def step(self, assignment: np.ndarray, step_index: int) -> StepResult:
        assignment = self._check_assignment(assignment)
        assigned = int(assignment.sum())
        if self._flow_control is not None:
            admitted = self._flow_control.admit(assignment, self.placement)
        else:
            admitted = assignment

        blocking, outcome = self._layer.begin_step(admitted, step_index)
        plan = self._layer.route(admitted)
        timing = self._ctx.executor.execute(plan.flow, self.placement)
        if blocking > 0:
            timing = dataclasses.replace(timing, adjustment_blocking=blocking)
        committed = self._layer.advance_stream(
            timing.step_time * self._overlap_factor
        )
        return StepResult(
            timing=timing,
            assigned_tokens=assigned,
            processed_tokens=int(admitted.sum()),
            gpu_loads=plan.gpu_loads,
            scheduling_actions=committed if self._scheduler_config.best_effort
            else len(outcome.actions),
        )
