"""Configuration dataclasses shared across the FlexMoE reproduction.

The configs mirror the knobs of the original system: the MoE model family
(Table 1 of the paper), the GPU cluster (Section 5.1), the synthetic routing
workload (Section 2.4) and the FlexMoE scheduler (Sections 3.3-3.4).

All configs are frozen dataclasses validated eagerly in ``__post_init__`` so
that an invalid experiment fails at construction time, not mid-simulation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError

#: Bytes per master-copy parameter / optimizer element (fp32).
BYTES_PER_ELEMENT = 4

#: Bytes per activation / gradient element on the wire. MoE systems run the
#: All-to-All and gradient AllReduce in half precision (Tutel, DeepSpeed-MoE
#: and FasterMoE all do), so communication reasons in fp16.
WIRE_BYTES_PER_ELEMENT = 2

#: Optimizer states kept per parameter by Adam (param + m + v), used when a
#: vExpert's model states are copied during ``Expand`` / ``Migrate``.
ADAM_STATE_FACTOR = 3

#: Fraction of a training step's expert FLOPs spent in the forward pass
#: (backward ~= 2x the forward). Inference-shaped steps (online serving)
#: run only this share of the calibrated forward+backward figures.
FORWARD_FRACTION = 1.0 / 3.0


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


def auto_slots_per_gpu(num_experts: int, num_gpus: int) -> int:
    """Default vExpert slots per GPU when none is configured.

    Every expert needs one vExpert; doubling that minimum keeps
    replication headroom on any cluster (the paper's setups do the same),
    with a floor of 4 slots. Shared by the scheduler auto-sizing and the
    benchmarks so they always agree on the placement shape.
    """
    _require(num_experts >= 1, "num_experts must be >= 1")
    _require(num_gpus >= 1, "num_gpus must be >= 1")
    return max(4, 2 * -(-num_experts // num_gpus))


@dataclass(frozen=True)
class MoEModelConfig:
    """Architecture of one MoE-augmented transformer (one row of Table 1).

    Attributes:
        name: Human-readable model identifier, e.g. ``"GPT-MoE-L"``.
        num_layers: Number of transformer layers; every other layer hosts an
            MoE block in the paper's models.
        d_model: Hidden dimension of the token representation.
        d_ffn: Inner dimension of each expert FFN (4x ``d_model`` typically).
        num_experts: Experts per MoE layer.
        top_k: Gate sparsity (the paper uses Top-2 for every evaluation model).
        capacity_factor: Expert capacity multiplier used by capacity-based
            baselines; ``None`` disables capacity limits entirely.
    """

    name: str
    num_layers: int
    d_model: int
    d_ffn: int
    num_experts: int
    top_k: int = 2
    capacity_factor: float | None = 1.0

    def __post_init__(self) -> None:
        _require(self.num_layers >= 1, "num_layers must be >= 1")
        _require(self.d_model >= 1, "d_model must be >= 1")
        _require(self.d_ffn >= 1, "d_ffn must be >= 1")
        _require(self.num_experts >= 1, "num_experts must be >= 1")
        _require(
            1 <= self.top_k <= self.num_experts,
            f"top_k must be in [1, num_experts], got {self.top_k}",
        )
        if self.capacity_factor is not None:
            _require(self.capacity_factor > 0, "capacity_factor must be > 0")

    @property
    def expert_params(self) -> int:
        """Parameter count of a single expert (two-layer FFN with biases)."""
        return 2 * self.d_model * self.d_ffn + self.d_ffn + self.d_model

    @property
    def expert_bytes(self) -> int:
        """Bytes of one expert's gradients on the wire (fp16 AllReduce)."""
        return self.expert_params * WIRE_BYTES_PER_ELEMENT

    @property
    def expert_state_bytes(self) -> int:
        """Bytes moved when a vExpert's model states are copied.

        Covers parameters plus Adam optimizer moments, matching the paper's
        ``size(e.model_states)`` in the adjustment cost model.
        """
        return self.expert_params * (1 + ADAM_STATE_FACTOR) * BYTES_PER_ELEMENT

    @property
    def token_bytes(self) -> int:
        """Bytes of a single token activation crossing the All-to-All."""
        return self.d_model * WIRE_BYTES_PER_ELEMENT

    @property
    def flops_per_token(self) -> float:
        """Forward+backward FLOPs for one token through one expert.

        Forward is ~``2 * 2 * d_model * d_ffn`` MACs-as-FLOPs; backward costs
        roughly twice the forward pass, hence the factor of 3.
        """
        return 3.0 * 2.0 * 2.0 * self.d_model * self.d_ffn

    @property
    def num_moe_layers(self) -> int:
        """MoE layers in the transformer (every other layer, per the paper)."""
        return max(1, self.num_layers // 2)

    @property
    def attention_flops_per_token(self) -> float:
        """Forward+backward FLOPs of one attention block for one token.

        Counts the four ``d_model x d_model`` projections (Q, K, V, output)
        at 2 FLOPs per MAC, times 3 for forward plus ~2x backward. The
        sequence-quadratic score term is omitted — it is sequence-length
        dependent and small next to the projections at the paper's context
        lengths.
        """
        return 3.0 * 2.0 * 4.0 * self.d_model * self.d_model

    @property
    def dense_flops_per_moe_block(self) -> float:
        """Non-expert FLOPs per token accompanying one MoE layer.

        The paper's models alternate dense and MoE transformer layers, so
        each MoE layer's slice of the model carries the attention of its
        own layer plus the attention and dense FFN of the paired dense
        layer. This is the computation the pipelined executor overlaps the
        MoE All-to-All with.
        """
        dense_ffn_flops = 3.0 * 2.0 * 2.0 * self.d_model * self.d_ffn
        return 2.0 * self.attention_flops_per_token + dense_ffn_flops


@dataclass(frozen=True)
class DeviceSpec:
    """Compute capabilities of one accelerator.

    The defaults approximate an NVIDIA A100 (the paper's testbed): dense
    throughput of 312 TFLOP/s with a realistic utilization factor applied to
    expert GEMMs.
    """

    name: str = "A100"
    peak_flops: float = 312e12
    mfu: float = 0.40

    def __post_init__(self) -> None:
        _require(self.peak_flops > 0, "peak_flops must be > 0")
        _require(0 < self.mfu <= 1.0, "mfu must be in (0, 1]")

    @property
    def effective_flops(self) -> float:
        """Sustained FLOP/s available to expert computation."""
        return self.peak_flops * self.mfu

    def tokens_per_second(self, model: MoEModelConfig) -> float:
        """Ground-truth TPS of this device for ``model``'s experts."""
        return self.effective_flops / model.flops_per_token


@dataclass(frozen=True)
class ClusterConfig:
    """Shape and fabric of the simulated GPU cluster.

    Defaults follow the paper's Azure setup: 8 A100s per node, NVLink 3.0
    intra-node (~300 GB/s per GPU) and 8x200 Gbps InfiniBand inter-node
    (~25 GB/s per GPU).

    Attributes:
        compute_scales: Optional per-GPU compute multipliers (length
            ``num_gpus``) modelling mixed GPU generations or persistent
            stragglers; ``None`` keeps the pool homogeneous. A scale of
            0.5 means the device sustains half the spec's throughput.
    """

    num_nodes: int = 4
    gpus_per_node: int = 8
    device: DeviceSpec = field(default_factory=DeviceSpec)
    intra_node_bandwidth: float = 300e9
    inter_node_bandwidth: float = 25e9
    intra_node_latency: float = 3e-6
    inter_node_latency: float = 12e-6
    compute_scales: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        _require(self.num_nodes >= 1, "num_nodes must be >= 1")
        _require(self.gpus_per_node >= 1, "gpus_per_node must be >= 1")
        _require(self.intra_node_bandwidth > 0, "intra_node_bandwidth must be > 0")
        _require(self.inter_node_bandwidth > 0, "inter_node_bandwidth must be > 0")
        _require(self.intra_node_latency >= 0, "intra_node_latency must be >= 0")
        _require(self.inter_node_latency >= 0, "inter_node_latency must be >= 0")
        if self.compute_scales is not None:
            scales = tuple(float(s) for s in self.compute_scales)
            object.__setattr__(self, "compute_scales", scales)
            _require(
                len(scales) == self.num_gpus,
                "compute_scales must have one entry per GPU "
                f"({self.num_gpus}), got {len(scales)}",
            )
            _require(
                all(s > 0 for s in scales), "compute_scales entries must be > 0"
            )

    @property
    def num_gpus(self) -> int:
        return self.num_nodes * self.gpus_per_node

    def compute_scale_of(self, gpu: int) -> float:
        """Static compute multiplier of ``gpu`` (1.0 when homogeneous)."""
        return 1.0 if self.compute_scales is None else self.compute_scales[gpu]


@dataclass(frozen=True)
class WorkloadConfig:
    """Synthetic routing-trace parameters calibrated to Section 2.4.

    Attributes:
        tokens_per_step: Global number of tokens dispatched to each MoE layer
            per training step.
        num_steps: Length of the trace.
        skew: Zipf-like skew exponent of the stationary expert popularity
            (``~1.3`` reproduces Figure 3a's "top 10 of 64 experts receive
            ~75% of tokens").
        drift: Per-step scale of the random walk applied to expert logits;
            controls how fast the routing fluctuates (Figure 3b).
        renewal_period: Average number of steps between popularity "regime
            changes" where a cold expert starts heating up.
        final_skew: When set, the popularity skew anneals linearly from
            ``skew`` to this value over the trace, modelling the balance
            loss gradually evening out the routing (Figure 7a: "imbalanced
            workloads are getting better due to the punishment of balance
            loss"). ``None`` keeps the skew stationary.
        spike_period: When set, a load spike hits a random expert on
            average every this many steps: its logit jumps by
            ``log(spike_magnitude)`` and then decays through the normal
            mean reversion. Models sudden routing shifts (domain changes
            mid-corpus) that stress the dynamic placement. ``None``
            (default) disables spikes.
        spike_magnitude: Multiplier applied to the spiked expert's
            popularity at the moment of the spike.
        seed: RNG seed for reproducibility.
    """

    tokens_per_step: int = 2_097_152
    num_steps: int = 200
    skew: float = 1.3
    drift: float = 0.05
    renewal_period: int = 500
    final_skew: float | None = None
    spike_period: int | None = None
    spike_magnitude: float = 4.0
    seed: int = 0

    def __post_init__(self) -> None:
        _require(self.tokens_per_step >= 1, "tokens_per_step must be >= 1")
        _require(self.num_steps >= 1, "num_steps must be >= 1")
        _require(self.skew >= 0, "skew must be >= 0")
        _require(self.drift >= 0, "drift must be >= 0")
        _require(self.renewal_period >= 1, "renewal_period must be >= 1")
        if self.final_skew is not None:
            _require(self.final_skew >= 0, "final_skew must be >= 0")
        if self.spike_period is not None:
            _require(self.spike_period >= 1, "spike_period must be >= 1")
        _require(self.spike_magnitude > 0, "spike_magnitude must be > 0")

    def replace(self, **changes: object) -> "WorkloadConfig":
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class FaultConfig:
    """Failure/straggler injection knobs for the elastic cluster runtime.

    An :class:`~repro.cluster.events.ElasticitySchedule` built from this
    config picks *which* devices fail or straggle with the seeded RNG, so
    a fixed seed yields a bit-identical event stream (see
    ``docs/elasticity.md``).

    Attributes:
        num_failures: Devices that fail over the run (distinct GPUs).
        failure_step: Step of the first failure.
        failure_spacing: Steps between successive failures.
        recovery_steps: Steps until a failed device rejoins (empty, to be
            refilled by the runtime); ``None`` makes failures permanent.
        num_stragglers: Devices that slow down (chosen among survivors
            when possible).
        straggler_factor: Compute multiplier applied to stragglers
            (0.5 = half speed).
        straggler_step: Step at which stragglers slow down.
        straggler_duration: Steps until a straggler recovers full speed;
            ``None`` makes the slowdown persistent.
        seed: RNG seed selecting the affected devices.
    """

    num_failures: int = 1
    failure_step: int = 10
    failure_spacing: int = 10
    recovery_steps: int | None = None
    num_stragglers: int = 0
    straggler_factor: float = 0.5
    straggler_step: int = 5
    straggler_duration: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        _require(self.num_failures >= 0, "num_failures must be >= 0")
        _require(self.failure_step >= 0, "failure_step must be >= 0")
        _require(self.failure_spacing >= 1, "failure_spacing must be >= 1")
        if self.recovery_steps is not None:
            _require(self.recovery_steps >= 1, "recovery_steps must be >= 1")
        _require(self.num_stragglers >= 0, "num_stragglers must be >= 0")
        _require(self.straggler_factor > 0, "straggler_factor must be > 0")
        _require(self.straggler_step >= 0, "straggler_step must be >= 0")
        if self.straggler_duration is not None:
            _require(self.straggler_duration >= 1, "straggler_duration must be >= 1")


#: Balance metrics understood by the scheduler (Figure 6a ablation).
BALANCE_METRICS = ("max", "variance")

#: Scheduling trigger modes (Figure 6b ablation).
SCHEDULER_MODES = ("dynamic", "static")

#: Placement-search strategies understood by the scheduler.
PLACEMENT_SEARCHES = ("auto", "flat", "hierarchical")

#: ``placement_search="auto"`` switches to the hierarchical two-level
#: search above this many devices. At or below it the flat sweep is both
#: cheap and exhaustive, so existing small-cluster runs stay bit-identical.
HIERARCHICAL_AUTO_THRESHOLD = 64

#: An intra-node migration candidate short-circuits the hierarchical
#: search (the cross-cluster sweep is never expanded) only when it
#: improves the modelled step time by at least this fraction. Smaller
#: intra-node wins still compete, but against the full candidate set —
#: so small clusters, where per-move gains are marginal, keep flat-sweep
#: decision quality.
HIERARCHICAL_ESCALATION_MARGIN = 0.05

#: Above :data:`HIERARCHICAL_AUTO_THRESHOLD` devices the hierarchical
#: search exactly prices only the (source replica, destination) pairs
#: covering roughly this many migration candidates per batch, ranked by
#: an O(1)-per-pair load proxy; the rest are pruned. Pairs whose move
#: contracts the expert's node span are always priced (a sync win the
#: load proxy cannot see), and every partner of a surviving pair keeps
#: its exact evaluation. Exact scoring is O(G) per candidate, so this
#: bounds a sweep's scoring cost at datacenter scale instead of letting
#: it grow with the candidate pool.
HIERARCHICAL_SCORE_TOP_K = 16


def resolve_placement_search(num_gpus: int, search: str = "auto") -> str:
    """Resolve a placement-search setting to ``"flat"`` or ``"hierarchical"``.

    ``"auto"`` picks hierarchical only above
    :data:`HIERARCHICAL_AUTO_THRESHOLD` devices; explicit settings pass
    through unchanged.
    """
    _require(
        search in PLACEMENT_SEARCHES,
        f"placement_search must be one of {PLACEMENT_SEARCHES}, got {search!r}",
    )
    if search != "auto":
        return search
    return "hierarchical" if num_gpus > HIERARCHICAL_AUTO_THRESHOLD else "flat"


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs of the FlexMoE scheduler (Algorithms 1-2).

    Attributes:
        balance_threshold: Trigger threshold on the balance ratio (Eq. 6);
            ratios above it start a scheduling round.
        metric: ``"max"`` for the paper's balance ratio, ``"variance"`` for
            the ablation alternative.
        mode: ``"dynamic"`` triggers on the threshold; ``"static"`` triggers
            every ``static_interval`` steps unconditionally.
        static_interval: Period of the static trigger (Figure 6b uses
            10/50/100).
        migrate: Whether the background Migrate pass runs: after every
            round that applied Expand/Shrink pairs, and every
            :data:`~repro.core.scheduler.MIGRATE_PERIOD` steps otherwise.
        best_effort: Overlap adjustments with training on a separate stream
            (Section 4); when ``False`` adjustments block the step.
        slots_per_gpu: Number of vExpert slots hosted by each GPU.
            ``None`` (default) auto-sizes to ``max(4, 2 * ceil(E / G))`` so
            every cluster keeps replication headroom.
        speed_aware_balance: Weight the trigger metric's per-GPU loads by
            the profiled (and elasticity-scaled) device speeds and ignore
            failed devices, so heterogeneous or degraded pools trigger on
            *time* imbalance rather than raw token counts. Off by default
            to preserve the paper's homogeneous-cluster semantics.
        min_replicas: Replication floor the Policy Maker must preserve
            when shrinking. The paper's floor is 1 (every expert needs a
            vExpert); elastic runs use 2 so a single device failure never
            destroys an expert's only copy of its model states —
            replication headroom doubles as fault tolerance.
        placement_search: ``"auto"`` (default — flat at or below
            :data:`HIERARCHICAL_AUTO_THRESHOLD` devices, hierarchical
            above), ``"flat"`` (every candidate scored in one sweep) or
            ``"hierarchical"`` (two-level: candidates in the hot expert's
            node group first, cross-node escalation only when no
            intra-node candidate beats the trigger threshold).
    """

    balance_threshold: float = 1.15
    metric: str = "max"
    mode: str = "dynamic"
    static_interval: int = 50
    migrate: bool = True
    best_effort: bool = True
    slots_per_gpu: int | None = None
    speed_aware_balance: bool = False
    min_replicas: int = 1
    placement_search: str = "auto"

    def __post_init__(self) -> None:
        _require(self.balance_threshold >= 1.0, "balance_threshold must be >= 1")
        _require(
            self.metric in BALANCE_METRICS,
            f"metric must be one of {BALANCE_METRICS}, got {self.metric!r}",
        )
        _require(
            self.mode in SCHEDULER_MODES,
            f"mode must be one of {SCHEDULER_MODES}, got {self.mode!r}",
        )
        _require(self.static_interval >= 1, "static_interval must be >= 1")
        if self.slots_per_gpu is not None:
            _require(self.slots_per_gpu >= 1, "slots_per_gpu must be >= 1")
        _require(self.min_replicas >= 1, "min_replicas must be >= 1")
        _require(
            self.placement_search in PLACEMENT_SEARCHES,
            f"placement_search must be one of {PLACEMENT_SEARCHES}, "
            f"got {self.placement_search!r}",
        )

    def replace(self, **changes: object) -> "SchedulerConfig":
        return dataclasses.replace(self, **changes)
