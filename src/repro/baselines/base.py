"""Common interface for MoE training systems.

A *system* owns a placement policy and a token-handling policy. Per step it
receives the gate's raw assignment ``I`` (tokens per expert per source GPU),
decides what actually executes, and reports a :class:`StepResult` with both
timing and the two efficiency metrics of the paper's Figure 7a:

* **token efficiency** — fraction of assigned tokens processed by the
  expert the gate chose for them (drops and diversions count against it);
* **expert efficiency** — how evenly the useful computation spread over
  GPUs (``mean load / max load``), i.e. the meaningful-computation share of
  the straggler-synchronized step.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.collectives import CollectiveCostModel
from repro.cluster.events import ClusterState
from repro.cluster.groups import CommunicatorGroupCache
from repro.cluster.profiler import ClusterProfile, Profiler
from repro.cluster.topology import ClusterTopology
from repro.config import ClusterConfig, MoEModelConfig
from repro.core.balance import balance_ratio
from repro.runtime.executor import PipelineStepTiming, StepExecutor, StepTiming
from repro.exceptions import SimulationError

#: Relative noise of the profiled figures every system schedules against.
PROFILE_NOISE = 0.02
#: Relative execution-time noise of the ground-truth executor.
EXECUTION_JITTER = 0.02
#: Communicator groups the shared LRU cache holds before it evicts.
GROUP_CACHE_CAPACITY = 64


@dataclass(frozen=True)
class SystemContext:
    """Shared substrate handed to every system.

    Attributes:
        topology: The simulated cluster.
        model: MoE architecture under training.
        profile: *Noisy* profiled figures — what scheduling decisions see.
        executor: Ground-truth step execution — what actually happens.
        collectives: Ground-truth communication timing.
        cluster_state: Live view of the device pool, shared between the
            executor and any elastic-aware consumer; ``None`` keeps the
            pool frozen at construction (the paper's setting).
    """

    topology: ClusterTopology
    model: MoEModelConfig
    profile: ClusterProfile
    executor: StepExecutor
    collectives: CollectiveCostModel
    cluster_state: ClusterState | None = None


def build_context(
    cluster: ClusterConfig,
    model: MoEModelConfig,
    seed: int = 0,
    cluster_state: ClusterState | None = None,
    inference: bool = False,
) -> SystemContext:
    """Construct the full substrate for one experiment.

    ``inference=True`` builds the executor in inference mode (forward-only
    steps, no gradient sync) for the online serving engine.
    """
    topology = ClusterTopology(cluster)
    profile = Profiler(topology, noise=PROFILE_NOISE, seed=seed).profile(model)
    cache = CommunicatorGroupCache(capacity=GROUP_CACHE_CAPACITY)
    executor = StepExecutor(
        topology,
        model,
        jitter=EXECUTION_JITTER,
        seed=seed + 1,
        group_cache=cache,
        cluster_state=cluster_state,
        inference=inference,
    )
    return SystemContext(
        topology=topology,
        model=model,
        profile=profile,
        executor=executor,
        collectives=CollectiveCostModel(topology),
        cluster_state=cluster_state,
    )


@dataclass(frozen=True)
class StepResult:
    """Per-step outcome reported by every system.

    Attributes:
        timing: The executor's measured step timing (FlexMoE's one-layer
            engine reports its pipelined form).
        assigned_tokens: Tokens the gate wanted processed this step.
        processed_tokens: Tokens actually processed by their chosen expert.
        dropped_tokens: Tokens skipped entirely (capacity overflow).
        diverted_tokens: Tokens processed by a *different* expert than the
            gate chose (SWIPE-style reassignment).
        gpu_loads: Tokens computed per GPU.
        scheduling_actions: Placement primitives applied this step.
    """

    timing: StepTiming | PipelineStepTiming
    assigned_tokens: int
    processed_tokens: int
    dropped_tokens: int = 0
    diverted_tokens: int = 0
    gpu_loads: np.ndarray = field(default_factory=lambda: np.zeros(0))
    scheduling_actions: int = 0

    @property
    def step_time(self) -> float:
        return self.timing.step_time

    @property
    def token_efficiency(self) -> float:
        if self.assigned_tokens == 0:
            return 1.0
        return self.processed_tokens / self.assigned_tokens

    @property
    def expert_efficiency(self) -> float:
        """Mean-over-max GPU load: 1.0 means perfectly balanced compute."""
        if self.gpu_loads.size == 0 or self.gpu_loads.max() == 0:
            return 1.0
        return float(self.gpu_loads.mean() / self.gpu_loads.max())

    @property
    def balance(self) -> float:
        if self.gpu_loads.size == 0:
            return 1.0
        return balance_ratio(self.gpu_loads)

    @property
    def utilization(self) -> float:
        return self.timing.compute_utilization


class MoESystem(abc.ABC):
    """Abstract MoE training system."""

    #: Human-readable system name used in reports.
    name: str = "abstract"

    def __init__(self, context: SystemContext) -> None:
        self._ctx = context

    @abc.abstractmethod
    def step(self, assignment: np.ndarray, step_index: int) -> StepResult:
        """Process one training step's gate assignment."""

    def _check_assignment(self, assignment: np.ndarray) -> np.ndarray:
        assignment = np.asarray(assignment)
        if assignment.ndim != 2:
            raise SimulationError("assignment must be (experts, gpus)")
        if assignment.shape[0] != self._ctx.model.num_experts:
            raise SimulationError(
                f"assignment has {assignment.shape[0]} experts, model has "
                f"{self._ctx.model.num_experts}"
            )
        if assignment.shape[1] != self._ctx.topology.num_gpus:
            raise SimulationError(
                f"assignment has {assignment.shape[1]} gpus, cluster has "
                f"{self._ctx.topology.num_gpus}"
            )
        return assignment
