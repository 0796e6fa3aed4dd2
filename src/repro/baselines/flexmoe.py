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

Steps 2-5 are the step of
:class:`~repro.runtime.pipeline.MultiLayerFlexMoEEngine`: this class runs
a one-layer engine without dense blocks behind the
:class:`~repro.baselines.base.MoESystem` interface, and adds only the
flow controller of step 1.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import MoESystem, StepResult, SystemContext
from repro.config import SchedulerConfig
from repro.core.flow_control import GateFlowController
from repro.core.placement import Placement
from repro.core.scheduler import Scheduler
from repro.runtime.pipeline import MultiLayerFlexMoEEngine


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
        self._flow_control = flow_control
        self._engine = MultiLayerFlexMoEEngine(
            executor=context.executor,
            profile=context.profile,
            collectives=context.collectives,
            num_moe_layers=1,
            scheduler_config=scheduler_config,
            model_dense_compute=False,
        )
        (self._layer,) = self._engine.layers

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
        if self._flow_control is not None:
            admitted = self._flow_control.admit(assignment, self.placement)
        else:
            admitted = assignment

        engine = self._engine
        pending = engine.step_schedule(admitted[None], step_index)
        timing = engine.step_execute(pending)
        # The adjustment stream overlaps the *whole model's* training step,
        # of which the simulated MoE layer is one slice: the stream budget
        # per simulated step is scaled by the number of MoE layers.
        result = engine.step_commit(
            pending, timing.step_time * self._ctx.model.num_moe_layers
        )
        return StepResult(
            timing=result.timing,
            assigned_tokens=int(assignment.sum()),
            processed_tokens=result.processed_tokens,
            gpu_loads=result.gpu_loads,
            scheduling_actions=result.scheduling_actions,
        )
