"""Ground-truth step execution ("real cost") for MoE layers.

:class:`StepExecutor` plays the synchronous timeline of ONE MoE layer's
step against the *true* hardware figures of the simulated cluster plus
execution jitter:

1. forward dispatch All-to-All  (barrier across GPUs)
2. forward expert computation   (barrier — combine needs every GPU)
3. forward combine All-to-All   (barrier)
4. backward combine All-to-All  (barrier)
5. backward expert computation  (barrier)
6. backward dispatch All-to-All (barrier)
7. replica-gradient AllReduce, launched in logical-id order with
   communicator-group acquisition through the LRU cache

Its timings are what the paper's Figure 6c calls "real cost"; the
:class:`~repro.core.cost_model.MoECostModel` built on a *noisy profile*
provides the "estimation cost". Barrier semantics make the executor's step
time an upper bound of the cost model's per-GPU-sum (Eq. 5); for the
straggler-dominated steps FlexMoE targets the two agree closely.

:class:`PipelinedStepExecutor` composes per-layer timings into a whole
transformer step: every MoE layer of the model executes, the dense
(attention + shared FFN) computation between MoE blocks is modelled, and
each layer's All-to-All phases overlap that dense computation on a
separate stream — the fine-grained task pipelining the paper's evaluation
(and FSMoE/Hecate after it) relies on. See ``docs/architecture.md`` for
the step timeline and the overlap rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.cluster.collectives import CollectiveCostModel
from repro.cluster.groups import CommunicatorGroupCache, ordered_allreduce_schedule
from repro.cluster.topology import ClusterTopology
from repro.config import FORWARD_FRACTION, MoEModelConfig
from repro.core.placement import Placement
from repro.core.router import SPILL_CHUNK_CELLS
from repro.exceptions import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.events import ClusterState


@dataclass(frozen=True)
class StepTiming:
    """Measured ("real") timing of one executed step.

    Attributes:
        a2a_time: Seconds across all four All-to-All phases (barriered).
        compute_time: Seconds across forward+backward compute (barriered).
        sync_time: Seconds of replica AllReduce, including communicator
            creation overheads.
        adjustment_blocking: Seconds the adjustment stream failed to hide.
        per_gpu_compute: Per-GPU busy compute seconds (utilization metric).
    """

    a2a_time: float
    compute_time: float
    sync_time: float
    adjustment_blocking: float
    per_gpu_compute: np.ndarray

    @property
    def step_time(self) -> float:
        return (
            self.a2a_time
            + self.compute_time
            + self.sync_time
            + self.adjustment_blocking
        )

    @property
    def compute_utilization(self) -> float:
        """Mean fraction of the step each GPU spent computing (Figure 2)."""
        step = self.step_time
        if step == 0:
            return 1.0
        return float((self.per_gpu_compute / step).mean())


class StepExecutor:
    """Plays MoE-layer steps against ground-truth cluster figures.

    Args:
        topology: The simulated cluster.
        model: Architecture sizing compute and message bytes.
        jitter: Relative execution-time noise (real kernels are not
            perfectly deterministic); 0 disables it.
        seed: RNG seed for the jitter stream.
        group_cache: Optional communicator cache; when given, AllReduce
            launches pay creation overhead on cache misses.
        inference: Play inference-shaped steps (online serving): forward
            dispatch + combine All-to-All only (two passes), the forward
            share of expert compute, no backward phases and no
            replica-gradient AllReduce. Off by default.
    """

    def __init__(
        self,
        topology: ClusterTopology,
        model: MoEModelConfig,
        jitter: float = 0.02,
        seed: int = 0,
        group_cache: CommunicatorGroupCache | None = None,
        cluster_state: "ClusterState | None" = None,
        inference: bool = False,
    ) -> None:
        if jitter < 0:
            raise SimulationError("jitter must be >= 0")
        self._topology = topology
        self._model = model
        self._collectives = CollectiveCostModel(topology)
        self._jitter = jitter
        self._rng = np.random.default_rng(seed)
        self._group_cache = group_cache
        self._cluster_state = cluster_state
        self._inference = inference
        self._tps = np.array(
            [d.tokens_per_second(model) for d in topology.devices]
        )

    @property
    def topology(self) -> ClusterTopology:
        return self._topology

    @property
    def model(self) -> MoEModelConfig:
        return self._model

    @property
    def group_cache(self) -> CommunicatorGroupCache | None:
        return self._group_cache

    @property
    def inference(self) -> bool:
        """Whether this executor plays inference-shaped steps."""
        return self._inference

    @property
    def cluster_state(self) -> "ClusterState | None":
        """Live device-pool view degrading ground-truth compute (elastic)."""
        return self._cluster_state

    @cluster_state.setter
    def cluster_state(self, state: "ClusterState | None") -> None:
        self._cluster_state = state

    def _effective_tps(self) -> np.ndarray:
        """Ground-truth per-GPU TPS under the current dynamic speeds."""
        if self._cluster_state is None:
            return self._tps
        return self._tps * self._cluster_state.speed_view()

    def _jittered(self, value: float | np.ndarray) -> float | np.ndarray:
        if self._jitter == 0:
            return value
        noise = self._rng.normal(1.0, self._jitter, np.shape(value) or None)
        return value * np.clip(noise, 0.5, 1.5)

    # ------------------------------------------------------------------
    # Individual "real" operations (Figure 6c ground truth)
    # ------------------------------------------------------------------
    def real_compute_time(self, tokens: float, gpu: int) -> float:
        """Measured compute seconds for ``tokens`` on ``gpu``: forward +
        backward when training, the forward share at inference."""
        if tokens < 0:
            raise SimulationError("tokens must be >= 0")
        return float(self._busy(tokens, self._effective_tps()[gpu]))

    def real_a2a_pass_time(self, flow: np.ndarray) -> float:
        """Measured seconds of ONE All-to-All pass for a ``(src, dst)`` flow:
        the slowest destination's receive (Eq. 8)."""
        receive = self._topology.bandwidth_model().receive_times(
            self._checked((flow,))[0], self._model.token_bytes
        )
        return float(self._jittered(receive.max()))

    def _busy(
        self, tokens: float | np.ndarray, tps: float | np.ndarray
    ) -> float | np.ndarray:
        """Eq. 7 as played: jittered compute seconds of ``tokens`` at
        ``tps``, cut to the forward share at inference."""
        busy = self._jittered(tokens / tps)
        return busy * FORWARD_FRACTION if self._inference else busy

    def _checked(self, layer_flows: Sequence[np.ndarray]) -> np.ndarray:
        """The layers' flows as one float ``(layers, gpus, gpus)`` token
        stack, validated."""
        num_gpus = self._topology.num_gpus
        for flow in layer_flows:
            if np.shape(flow) != (num_gpus, num_gpus):
                raise SimulationError(
                    f"flow must be ({num_gpus}, {num_gpus}) tokens (src, dst), "
                    f"got shape {np.shape(flow)}"
                )
        flows = np.asarray(layer_flows, dtype=float)
        if not (np.isfinite(flows).all() and flows.min() >= 0):
            raise SimulationError("flow token counts must be finite and >= 0")
        return flows

    def real_allreduce_time(self, nbytes: float, group: tuple[int, ...]) -> float:
        """Measured seconds for one AllReduce of ``nbytes`` over ``group``."""
        return float(self._jittered(self._collectives.allreduce_time(nbytes, group)))

    # ------------------------------------------------------------------
    # Full step
    # ------------------------------------------------------------------
    def execute(self, flow: np.ndarray, placement: Placement) -> StepTiming:
        """Execute one step and return its measured timing: the one-layer
        case of :meth:`execute_layers`, charged no adjustment blocking.

        Args:
            flow: ``(src, dst)`` token flow from the router
                (:attr:`~repro.core.router.RoutingPlan.flow`).
            placement: Placement the step ran under (defines sync groups).

        Raises:
            SimulationError: On a flow that is not ``(gpus, gpus)`` or a
                negative or non-finite token count.
        """
        (timing,) = self.execute_layers((flow,), (placement,))
        return timing

    def execute_layers(
        self,
        layer_flows: Sequence[np.ndarray],
        placements: Sequence[Placement],
    ) -> list[StepTiming]:
        """Execute every MoE layer of a step; one timing per layer, in
        layer order, none charged adjustment blocking.

        Eq. 8's receive maxima and Eq. 7's busy vectors are computed for
        a stack of layers at once -- as many as keep the stack's
        ``gpus x gpus`` flow cells within
        :data:`~repro.core.router.SPILL_CHUNK_CELLS`, at least one. Each
        layer then makes one jitter draw of ``passes + gpus`` values:
        the same values, in the same order, as one draw per All-to-All
        pass followed by one for the busy vector. When training, the
        layer's replica AllReduce draws follow before the next layer's.

        Args:
            layer_flows: One ``(src, dst)`` token flow per layer (a
                ``(layers, gpus, gpus)`` array will do).
            placements: The placement each layer ran under.

        Raises:
            SimulationError: On a count mismatch between flows and
                placements, or any flow that :meth:`execute` rejects.
        """
        if len(layer_flows) != len(placements):
            raise SimulationError(
                f"{len(layer_flows)} flows for {len(placements)} placements"
            )
        num_gpus = self._topology.num_gpus
        per_stack = max(1, SPILL_CHUNK_CELLS // (num_gpus * num_gpus))
        timings: list[StepTiming] = []
        for lo in range(0, len(placements), per_stack):
            timings += self._play(
                self._checked(layer_flows[lo : lo + per_stack]),
                placements[lo : lo + per_stack],
            )
        return timings

    def _play(
        self, flows: np.ndarray, placements: Sequence[Placement]
    ) -> list[StepTiming]:
        """The timelines of a validated ``(layers, gpus, gpus)`` stack."""
        # --- All-to-All: dispatch + combine (forward + backward when
        # training; inference skips the backward passes). Every pass moves
        # the same flow; each draws its own jitter.
        passes = 2 if self._inference else 4
        bottlenecks = self._topology.bandwidth_model().receive_times(
            flows, self._model.token_bytes
        ).max(axis=-1)
        # --- Expert compute off the flows' column sums (Eq. 7) ----------
        seconds = flows.sum(axis=1) / self._effective_tps()
        timings = []
        for bottleneck, busy, placement in zip(bottlenecks, seconds, placements):
            # One jitter draw: the passes' values, then the busy vector's.
            played = self._jittered(
                np.concatenate((np.full(passes, bottleneck), busy))
            )
            a2a_time = sum(played[:passes].tolist())
            busy = played[passes:]
            # Forward barrier (plus backward barrier when training).
            if self._inference:
                busy = busy * FORWARD_FRACTION
                compute_time = float(busy.max())
            else:
                forward = float((busy * FORWARD_FRACTION).max())
                backward = float((busy * (1 - FORWARD_FRACTION)).max())
                compute_time = forward + backward
            # --- Replica gradient AllReduce, deadlock-free launch order
            # (training only: serving never synchronizes gradients) ------
            sync_time = 0.0 if self._inference else self._run_sync(placement)
            timings.append(StepTiming(
                a2a_time=a2a_time,
                compute_time=compute_time,
                sync_time=sync_time,
                adjustment_blocking=0.0,
                per_gpu_compute=busy,
            ))
        return timings

    def _run_sync(self, placement: Placement) -> float:
        """AllReduce every replicated expert's gradients, in id order.

        Launches follow the logical-id schedule (Section 4's deadlock
        avoidance). Collectives over disjoint groups overlap; a GPU in
        multiple groups serializes its own launches — so the phase time is
        the longest per-GPU chain of AllReduce times.
        """
        schedules = ordered_allreduce_schedule(placement.replica_groups())
        if not schedules:
            return 0.0
        grad_bytes = self._model.expert_bytes
        # Each distinct group is priced (and its communicator acquired)
        # once, in first-launch order.
        seconds: dict[tuple[int, ...], float] = {}
        for launches in schedules.values():
            for launch in launches:
                if launch.group in seconds:
                    continue
                cost = self.real_allreduce_time(grad_bytes, launch.group)
                if self._group_cache is not None:
                    cost += self._group_cache.acquire(launch.group)
                seconds[launch.group] = cost
        return max(
            sum(seconds[launch.group] for launch in launches)
            for launches in schedules.values()
        )


@dataclass(frozen=True)
class PipelineStepTiming:
    """Measured timing of one whole-transformer step over all MoE layers.

    Attributes:
        layer_timings: Per-MoE-layer measured timings, in layer order.
        dense_time: Seconds of dense (attention + shared FFN) computation
            across all transformer blocks, barriered per block.
        hidden_a2a: All-to-All seconds hidden behind dense computation by
            the compute/communication pipeline (0 when overlap is off).
        adjustment_blocking: Seconds the adjustment streams failed to hide.
    """

    layer_timings: tuple[StepTiming, ...]
    dense_time: float
    hidden_a2a: float
    adjustment_blocking: float

    @property
    def num_layers(self) -> int:
        return len(self.layer_timings)

    @property
    def a2a_time(self) -> float:
        """Total All-to-All seconds across layers (hidden + exposed)."""
        return sum(t.a2a_time for t in self.layer_timings)

    @property
    def exposed_a2a(self) -> float:
        """All-to-All seconds actually extending the critical path."""
        return self.a2a_time - self.hidden_a2a

    @property
    def compute_time(self) -> float:
        """Expert-computation seconds across layers (barriered per layer)."""
        return sum(t.compute_time for t in self.layer_timings)

    @property
    def sync_time(self) -> float:
        """Replica-gradient AllReduce seconds across layers."""
        return sum(t.sync_time for t in self.layer_timings)

    @property
    def step_time(self) -> float:
        return (
            self.dense_time
            + self.compute_time
            + self.exposed_a2a
            + self.sync_time
            + self.adjustment_blocking
        )

    @property
    def per_gpu_compute(self) -> np.ndarray:
        """Per-GPU busy expert-compute seconds summed over layers."""
        return np.sum([t.per_gpu_compute for t in self.layer_timings], axis=0)

    @property
    def compute_utilization(self) -> float:
        """Mean fraction of the step each GPU spent on expert compute."""
        step = self.step_time
        if step == 0:
            return 1.0
        return float((self.per_gpu_compute / step).mean())

    @property
    def overlap_savings(self) -> float:
        """Fraction of All-to-All time the pipeline hid (0 when none)."""
        total = self.a2a_time
        if total == 0:
            return 0.0
        return self.hidden_a2a / total

    def breakdown(self) -> dict[str, float]:
        """Overlap-aware step-time decomposition, keyed by phase."""
        return {
            "dense_compute": self.dense_time,
            "expert_compute": self.compute_time,
            "a2a_exposed": self.exposed_a2a,
            "a2a_hidden": self.hidden_a2a,
            "sync": self.sync_time,
            "adjustment_blocking": self.adjustment_blocking,
            "step_time": self.step_time,
        }


class PipelinedStepExecutor:
    """Executes every MoE layer of a transformer step, with overlap.

    Wraps a single-layer :class:`StepExecutor` (ground-truth figures and
    jitter stream) and composes the per-layer timings into a whole-model
    step:

    * each MoE layer runs its full dispatch/compute/combine/sync timeline
      against its own placement and token flow;
    * the dense computation of the surrounding transformer blocks
      (:attr:`MoEModelConfig.dense_flops_per_moe_block`) executes between
      MoE blocks;
    * on a separate stream, each layer's All-to-All overlaps the dense
      computation of its own block — up to ``overlap_efficiency`` of the
      block's dense seconds hide that layer's A2A time.

    With ``model_dense_compute=False`` the composition degenerates to the
    plain sum of per-layer timings, which for a single layer is exactly
    :meth:`StepExecutor.execute`'s result plus the adjustment blocking
    this class charges (the single-layer FlexMoE system runs this way).

    Args:
        executor: Single-layer ground-truth executor.
        num_moe_layers: MoE layers per step; defaults to the model's
            ``num_moe_layers``.
        overlap_efficiency: Fraction of each block's dense time usable for
            hiding A2A (1.0 = perfect task pipelining, 0 disables overlap).
        model_dense_compute: Model the dense blocks at all; ``False``
            reduces the engine to stacked bare MoE layers.
    """

    def __init__(
        self,
        executor: StepExecutor,
        num_moe_layers: int | None = None,
        overlap_efficiency: float = 1.0,
        model_dense_compute: bool = True,
    ) -> None:
        if num_moe_layers is not None and num_moe_layers < 1:
            raise SimulationError("num_moe_layers must be >= 1")
        if not 0.0 <= overlap_efficiency <= 1.0:
            raise SimulationError("overlap_efficiency must be in [0, 1]")
        self._executor = executor
        self._num_layers = num_moe_layers or executor.model.num_moe_layers
        self._overlap_efficiency = overlap_efficiency
        self._model_dense = model_dense_compute
        # Dense tokens/second per GPU: expert TPS rescaled by the FLOP
        # ratio of one dense block to one expert.
        model = executor.model
        ratio = model.flops_per_token / model.dense_flops_per_moe_block
        self._dense_tps = np.array(
            [d.tokens_per_second(model) * ratio for d in executor.topology.devices]
        )

    @property
    def executor(self) -> StepExecutor:
        return self._executor

    @property
    def num_moe_layers(self) -> int:
        return self._num_layers

    @property
    def overlap_efficiency(self) -> float:
        return self._overlap_efficiency

    def dense_block_times(self, source_tokens: np.ndarray) -> list[float]:
        """Barriered dense-computation seconds of each layer's transformer
        block.

        Args:
            source_tokens: ``(layers, gpus)`` tokens resident on each
                source GPU this step.
        """
        if not self._model_dense:
            return [0.0] * len(source_tokens)
        dense_tps = self._dense_tps
        state = self._executor.cluster_state
        if state is not None:
            dense_tps = dense_tps * state.speed_view()
        per_gpu = np.asarray(source_tokens, dtype=float) / dense_tps
        if self._executor.inference:
            # Dense figures are calibrated forward+backward too; serving
            # runs only the forward share.
            per_gpu = per_gpu * FORWARD_FRACTION
        return per_gpu.max(axis=-1).tolist()

    def execute(
        self,
        layer_flows: Sequence[np.ndarray],
        placements: Sequence[Placement],
        adjustment_blocking: float = 0.0,
    ) -> PipelineStepTiming:
        """Execute one whole-transformer step and return its timing.

        Args:
            layer_flows: One ``(src, dst)`` token flow per MoE layer, in
                layer order.
            placements: The per-layer placements the step ran under.
            adjustment_blocking: Non-overlapped adjustment seconds charged
                to this step.
        """
        if len(layer_flows) != self._num_layers:
            raise SimulationError(
                f"expected flows for {self._num_layers} layers, "
                f"got {len(layer_flows)}"
            )
        if len(placements) != self._num_layers:
            raise SimulationError(
                f"expected {self._num_layers} placements, got {len(placements)}"
            )
        if adjustment_blocking < 0:
            raise SimulationError("adjustment_blocking must be >= 0")

        layer_timings = self._executor.execute_layers(layer_flows, placements)
        blocks = self.dense_block_times(np.asarray(layer_flows).sum(axis=2))
        dense_time = 0.0
        hidden = 0.0
        for timing, block in zip(layer_timings, blocks):
            dense_time += block
            hidden += min(timing.a2a_time, self._overlap_efficiency * block)
        return PipelineStepTiming(
            layer_timings=tuple(layer_timings),
            dense_time=dense_time,
            hidden_a2a=hidden,
            adjustment_blocking=adjustment_blocking,
        )
