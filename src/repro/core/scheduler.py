"""The Scheduler: workload monitoring and placement adjustment (Algorithm 1).

Every training step the Scheduler observes the gate's token assignment
``I``, evaluates the balance metric under the current placement, and — when
its :class:`~repro.core.trigger.Trigger` fires (the balance metric exceeds
the threshold in dynamic mode, a fixed interval elapses in static mode, or
an SLO/queue-depth violation in serving runs) — repeatedly asks the Policy
Maker for (Shrink, Expand) pairs until no beneficial modification remains.
A background Migrate pass then consolidates replica groups.

Adjustment transfers ride the layer's adjustment stream; with best-effort
mode they overlap training on a separate stream (Section 4), otherwise they
block the step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.topology import ClusterTopology
from repro.config import SchedulerConfig
from repro.core.balance import gpu_loads_even_split, metric_value
from repro.core.cost_model import MoECostModel
from repro.core.migration import MigrationPlanner
from repro.core.placement import Placement
from repro.core.policy import PolicyMaker
from repro.core.primitives import PlacementAction, apply_actions
from repro.core.trigger import Trigger, TriggerSignals, trigger_from_config

#: Safety bound on Expand/Shrink pairs applied in one scheduling round.
MAX_PLANS_PER_ROUND = 64
#: Steps between background Migrate passes when no Expand/Shrink fired
#: (the pass always follows applied pairs).
MIGRATE_PERIOD = 10


@dataclass(frozen=True)
class SchedulingOutcome:
    """What one scheduler invocation decided and did.

    Attributes:
        triggered: Whether a scheduling round ran at all.
        metric_before: Balance metric before any adjustment.
        metric_after: Balance metric after the applied adjustments.
        actions: Placement actions planned this step (Expand/Shrink pairs
            followed by Migrates). They are applied to the target placement
            the scheduler manages at once and commit to the active placement
            later, when the layer's best-effort stream has paid for them.
        rounds: Number of Policy Maker invocations that returned a plan.
        adjustment_time: Total modelled transfer seconds of the actions.
    """

    triggered: bool
    metric_before: float
    metric_after: float
    actions: tuple[PlacementAction, ...] = ()
    rounds: int = 0
    adjustment_time: float = 0.0

    # ``metric_before``/``metric_after`` are NaN on untriggered steps of
    # triggers that do not consume the balance metric (LatencyTrigger,
    # NeverTrigger): computing the O(E*D) loads purely for the record
    # would defeat the point of such triggers. They are NaN too on the
    # steps a layer held its scheduler behind in-flight adjustments.
    # Triggered steps always carry real values.


class Scheduler:
    """FlexMoE's monitoring + adjustment loop over one MoE layer.

    Args:
        placement: Placement to manage (mutated in place).
        policy: The Policy Maker used for Expand/Shrink decisions. The
            Migrate planner follows its evaluation path: it shares a
            delta policy's evaluator and runs the reference path with a
            reference policy.
        config: Trigger metric/mode/threshold configuration.
        topology: Cluster locality, needed by the Migrate planner.
        trigger: When-to-schedule predicate. ``None`` (default) derives
            the paper's trigger from ``config`` via
            :func:`~repro.core.trigger.trigger_from_config`; serving runs
            pass a :class:`~repro.core.trigger.LatencyTrigger` so the
            identical monitoring loop fires on SLO pressure instead.
    """

    def __init__(
        self,
        placement: Placement,
        policy: PolicyMaker,
        config: SchedulerConfig,
        topology: ClusterTopology,
        trigger: Trigger | None = None,
    ) -> None:
        self._placement = placement
        self._policy = policy
        self._config = config
        self._trigger = trigger if trigger is not None else trigger_from_config(config)
        self._p99_latency: float | None = None
        self._queue_tokens: float | None = None
        self._slo_attainment: float | None = None
        self._migration = MigrationPlanner(
            policy.cost_model,
            topology,
            min_replicas=config.min_replicas,
            use_delta=policy.uses_delta,
            memo=policy.memo,
            placement_search=config.placement_search,
            # Share the policy's evaluator: the migrate pass then rebases
            # incrementally from the round the policy just priced instead
            # of rebuilding the whole base a second time per step.
            delta=policy.delta,
        )
        self._history: list[SchedulingOutcome] = []

    @property
    def placement(self) -> Placement:
        return self._placement

    @property
    def config(self) -> SchedulerConfig:
        return self._config

    @property
    def history(self) -> tuple[SchedulingOutcome, ...]:
        return tuple(self._history)

    @property
    def cost_model(self) -> MoECostModel:
        return self._policy.cost_model

    @property
    def policy(self) -> PolicyMaker:
        return self._policy

    @property
    def migration(self) -> MigrationPlanner:
        return self._migration

    @property
    def trigger(self) -> Trigger:
        return self._trigger

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def observe_serving_signals(
        self,
        p99_latency: float | None = None,
        queue_tokens: float | None = None,
        slo_attainment: float | None = None,
    ) -> None:
        """Record the latest serving-side signals for the trigger.

        Online serving pushes its rolling p99 request latency,
        admission-queue depth and rolling SLO attainment here before each
        batch's scheduling phase; a
        :class:`~repro.core.trigger.LatencyTrigger` (and any capacity
        controller probing the scheduler) reads them from the per-step
        :class:`~repro.core.trigger.TriggerSignals`. Training triggers
        ignore them.
        """
        self._p99_latency = p99_latency
        self._queue_tokens = queue_tokens
        self._slo_attainment = slo_attainment

    def _signals(self, step: int, metric: float | None) -> TriggerSignals:
        return TriggerSignals(
            step=step,
            balance_metric=metric,
            p99_latency=self._p99_latency,
            queue_tokens=self._queue_tokens,
            slo_attainment=self._slo_attainment,
        )
    def current_metric(self, assignment: np.ndarray) -> float:
        loads = gpu_loads_even_split(assignment, self._placement)
        if self._config.speed_aware_balance:
            # Heterogeneous / degraded pools: imbalance is about *time*,
            # not token counts. Weight loads by per-device speed and drop
            # failed devices (their load is zero by construction, but
            # counting them would deflate the mean). Both metrics are
            # scale-free, so the threshold keeps its meaning.
            cost_model = self._policy.cost_model
            loads = (loads / cost_model.effective_tps())[cost_model.live_mask()]
        return metric_value(self._config.metric, loads)

    def on_step(self, assignment: np.ndarray, step: int) -> SchedulingOutcome:
        """Run the monitoring loop for one step's assignment ``I``.

        Mutates the managed placement when adjustments are beneficial and
        returns the outcome record (also appended to :attr:`history`).
        """
        assignment = np.asarray(assignment)
        # The balance metric is only computed when the trigger consumes
        # it; for SLO-style triggers an untriggered step skips the
        # O(E*D) load evaluation entirely (its outcome records NaN).
        metric_before = (
            self.current_metric(assignment)
            if self._trigger.requires_balance_metric
            else None
        )
        if not self._trigger.should_trigger(self._signals(step, metric_before)):
            value = float("nan") if metric_before is None else metric_before
            outcome = SchedulingOutcome(
                triggered=False,
                metric_before=value,
                metric_after=value,
            )
            self._history.append(outcome)
            return outcome
        if metric_before is None:
            # Triggered rounds always report real metrics: the before
            # value anchors the outcome record and the improvement loop.
            metric_before = self.current_metric(assignment)

        applied: list[PlacementAction] = []
        rounds = 0
        adjustment_time = 0.0
        while rounds < MAX_PLANS_PER_ROUND:
            decision = self._policy.make_plan(assignment, self._placement)
            if not decision.beneficial:
                break
            apply_actions(self._placement, list(decision.actions))
            applied.extend(decision.actions)
            adjustment_time += decision.adjustment_time
            rounds += 1
            value = (
                self.current_metric(assignment)
                if self._trigger.requires_balance_metric
                else None
            )
            if not self._trigger.should_trigger(self._signals(step, value)):
                # The trigger is satisfied (e.g. the balance metric fell
                # back under its threshold); stop the round early. The
                # static-interval trigger keeps firing at the same step,
                # preserving its run-until-no-benefit semantics.
                break

        run_migrate = self._config.migrate and (
            rounds > 0 or step % MIGRATE_PERIOD == 0
        )
        if run_migrate:
            migrations = self._migration.plan(assignment, self._placement)
            if migrations:
                apply_actions(self._placement, migrations)
                applied.extend(migrations)
                adjustment_time += self._policy.cost_model.adjustment_cost(
                    migrations
                )

        outcome = SchedulingOutcome(
            triggered=True,
            metric_before=metric_before,
            # Nothing applied: same assignment and placement, same metric.
            metric_after=(
                self.current_metric(assignment) if applied else metric_before
            ),
            actions=tuple(applied),
            rounds=rounds,
            adjustment_time=adjustment_time,
        )
        self._history.append(outcome)
        return outcome
