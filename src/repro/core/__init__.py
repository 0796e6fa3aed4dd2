"""FlexMoE core: dynamic expert management and device placement.

This package implements the paper's primary contribution:

* :mod:`repro.core.placement` — the vExpert abstraction and the
  expert-to-device mapping ``P`` (Section 3.2);
* :mod:`repro.core.primitives` — the ``Expand`` / ``Shrink`` / ``Migrate``
  placement-modification primitives (Section 3.3);
* :mod:`repro.core.balance` — the balance ratio (Eq. 6) and the variance
  alternative (Figure 6a ablation);
* :mod:`repro.core.cost_model` — the computation / All-to-All /
  synchronization / adjustment cost models (Eqs. 5, 7, 8, 9);
* :mod:`repro.core.router` — flexible token routing (Algorithm 3);
* :mod:`repro.core.policy` — the Policy Maker (Algorithm 2);
* :mod:`repro.core.scheduler` — the Scheduler loop (Algorithm 1) plus the
  background Migrate pass;
* :mod:`repro.core.trigger` — the when-to-schedule predicates shared by
  training (imbalance ratio, static intervals) and online serving
  (latency/queue-depth SLO pressure);
* :mod:`repro.core.flow_control` — the gate flow-control mechanism.
"""

from repro.core.balance import balance_ratio, variance_ratio
from repro.core.cost_model import CostBreakdown, MemoizedStepCost, MoECostModel
from repro.core.placement import Placement
from repro.core.policy import PolicyMaker
from repro.core.primitives import Expand, Migrate, PlacementAction, Shrink
from repro.core.router import (
    FlexibleTokenRouter,
    ReferenceTokenRouter,
    RoutingPlan,
)
from repro.core.scheduler import Scheduler, SchedulingOutcome
from repro.core.flow_control import GateFlowController
from repro.core.trigger import (
    ImbalanceTrigger,
    LatencyTrigger,
    NeverTrigger,
    StaticIntervalTrigger,
    Trigger,
    TriggerSignals,
    trigger_from_config,
)

__all__ = [
    "CostBreakdown",
    "Expand",
    "FlexibleTokenRouter",
    "GateFlowController",
    "ImbalanceTrigger",
    "LatencyTrigger",
    "MemoizedStepCost",
    "Migrate",
    "MoECostModel",
    "NeverTrigger",
    "Placement",
    "PlacementAction",
    "PolicyMaker",
    "ReferenceTokenRouter",
    "RoutingPlan",
    "Scheduler",
    "SchedulingOutcome",
    "Shrink",
    "StaticIntervalTrigger",
    "Trigger",
    "TriggerSignals",
    "balance_ratio",
    "trigger_from_config",
    "variance_ratio",
]
