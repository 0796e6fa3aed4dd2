"""Shared experiment drivers for the benchmark suite.

The paper's experiments run for days on 64 A100s; the harness downscales
the *durations* (trace lengths, training steps) while keeping the structure
(models, cluster shapes, system line-ups) intact. ``ExperimentScale``
presets let the same benchmark run as a quick smoke test or a fuller
reproduction; the downscaling itself is the repo-wide policy in
:func:`repro.sim.scenario.smoke_scale` (``SMOKE`` is literally
``FULL.smoke()``), so every harness shares one smoke-duration rule.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from repro.baselines import (
    ExpertParallelSystem,
    FasterMoESystem,
    FlexMoESystem,
    SwipeSystem,
)
from repro.cluster.events import ElasticitySchedule
from repro.config import (
    ClusterConfig,
    FaultConfig,
    MoEModelConfig,
    SchedulerConfig,
    WorkloadConfig,
    auto_slots_per_gpu,
)
from repro.core.placement import Placement
from repro.core.router import FlexibleTokenRouter, ReferenceTokenRouter
from repro.exceptions import ConfigurationError
from repro.model.zoo import get_model_config
from repro.sim.scenario import clamp_warmup, smoke_scale
from repro.training.loop import (
    ComparisonResult,
    PipelineRunResult,
    compare_systems,
    simulate_pipeline,
)
from repro.workload.synthetic import DriftingRoutingGenerator, make_multilayer_trace

#: Target quality reached after this many steps by an ideal system; the
#: Figure 5 time-to-quality metric multiplies it by each system's
#: statistical-efficiency factor.
BASE_ITERATIONS = 10_000


@dataclass(frozen=True)
class ExperimentScale:
    """Downscaling knobs shared by the benchmarks.

    Attributes:
        num_steps: Trace length per experiment.
        warmup: Cold-start steps excluded from aggregates.
        tokens_per_step: Global token-assignments per step.
        quality_steps: Real-training steps for quality experiments.
        seeds: Independent repetitions for quality experiments.
    """

    num_steps: int = 40
    warmup: int = 10
    tokens_per_step: int = 2_097_152
    quality_steps: int = 250
    seeds: int = 2

    def workload(self, seed: int = 0, **overrides: object) -> WorkloadConfig:
        base = WorkloadConfig(
            tokens_per_step=self.tokens_per_step,
            num_steps=self.num_steps,
            seed=seed,
        )
        return base.replace(**overrides) if overrides else base

    def smoke(self) -> "ExperimentScale":
        """CI-scale preset via the shared :func:`smoke_scale` policy.

        The floors are the smallest durations at which every experiment
        still exercises its full structure (enough post-warmup steps for
        stable aggregates, enough quality steps for the loss to move).
        """
        return ExperimentScale(
            num_steps=smoke_scale(self.num_steps, floor=25),
            warmup=smoke_scale(self.warmup, floor=8),
            tokens_per_step=self.tokens_per_step,
            quality_steps=smoke_scale(self.quality_steps, floor=150),
            seeds=smoke_scale(self.seeds, floor=1),
        )


#: Preset for a fuller run.
FULL = ExperimentScale(
    num_steps=80, warmup=15, quality_steps=400, seeds=3
)

#: Preset used by the pytest benchmarks (keeps the whole suite in
#: minutes). Derived from FULL by the repo-wide smoke-duration policy.
SMOKE = FULL.smoke()


def cluster_for(
    num_gpus: int, slow_gpus: int = 0, slow_factor: float = 1.0
) -> ClusterConfig:
    """Paper-shaped cluster: 8 GPUs per node.

    Args:
        num_gpus: Cluster size (< 8, or a multiple of 8).
        slow_gpus: Static heterogeneity — this many devices (the highest
            indices) run at ``slow_factor`` of nominal compute throughput,
            modelling a previous-generation partition.
        slow_factor: Compute multiplier of the slow devices.
    """
    if num_gpus % 8 == 0:
        config = ClusterConfig(num_nodes=num_gpus // 8, gpus_per_node=8)
    elif num_gpus < 8:
        config = ClusterConfig(num_nodes=1, gpus_per_node=num_gpus)
    else:
        raise ConfigurationError(
            f"num_gpus must be < 8 or a multiple of 8, got {num_gpus}"
        )
    if slow_gpus:
        if not 0 < slow_gpus < num_gpus:
            raise ConfigurationError(
                f"slow_gpus must be in (0, {num_gpus}), got {slow_gpus}"
            )
        scales = tuple(
            slow_factor if g >= num_gpus - slow_gpus else 1.0
            for g in range(num_gpus)
        )
        config = dataclasses.replace(config, compute_scales=scales)
    return config


#: The Figure 5 line-up.
FIGURE5_SYSTEMS = (ExpertParallelSystem, FasterMoESystem, FlexMoESystem)

#: The Figure 7a line-up (adds SWIPE).
FIGURE7_SYSTEMS = (
    ExpertParallelSystem,
    SwipeSystem,
    FasterMoESystem,
    FlexMoESystem,
)


def figure5_comparison(
    model_name: str,
    num_gpus: int,
    scale: ExperimentScale = SMOKE,
    seed: int = 0,
) -> ComparisonResult:
    """One Figure 5 bar group: DeepSpeed vs FasterMoE vs FlexMoE."""
    model = get_model_config(model_name)
    return compare_systems(
        model=model,
        cluster=cluster_for(num_gpus),
        workload=scale.workload(seed=seed),
        systems=FIGURE5_SYSTEMS,
        warmup=scale.warmup,
        seed=seed,
    )


def scalability_sweep(
    gpu_counts: tuple[int, ...] = (8, 16, 32, 64),
    num_experts: int = 64,
    scale: ExperimentScale = SMOKE,
    seed: int = 0,
) -> dict[int, ComparisonResult]:
    """Figure 7b: single MoE layer with 64 experts across cluster sizes.

    Weak scaling, as in the paper: each GPU contributes a constant token
    batch of 32,768, so the global workload grows with the cluster.
    """
    model = MoEModelConfig(
        name=f"MoE-layer-{num_experts}e",
        num_layers=2,  # a single MoE layer (layers 0-1, MoE on layer 1)
        d_model=2048,
        d_ffn=8192,
        num_experts=num_experts,
    )
    results: dict[int, ComparisonResult] = {}
    for num_gpus in gpu_counts:
        workload = scale.workload(
            seed=seed, tokens_per_step=32_768 * num_gpus
        )
        results[num_gpus] = compare_systems(
            model=model,
            cluster=cluster_for(num_gpus),
            workload=workload,
            systems=FIGURE5_SYSTEMS,
            moe_layers=1,
            warmup=scale.warmup,
            seed=seed,
        )
    return results


def router_microbenchmark(
    num_experts: int = 64,
    num_gpus: int = 16,
    repeats: int = 30,
    seed: int = 0,
) -> dict[str, float]:
    """Time the vectorized router against the seed reference implementation.

    Both routers process the same skewed drifting assignments (32,768
    tokens per GPU, skew 1.3) over the same balanced placement; the
    returned ``speedup`` is the reference's mean per-call latency over
    the vectorized router's.
    """
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    config = WorkloadConfig(
        tokens_per_step=32_768 * num_gpus,
        num_steps=repeats,
        skew=1.3,
        seed=seed,
    )
    trace = DriftingRoutingGenerator(num_experts, num_gpus, config).generate()
    placement = Placement.balanced(
        num_experts, num_gpus, auto_slots_per_gpu(num_experts, num_gpus)
    )

    def time_router(router) -> float:
        router.route(trace.step(0), placement)  # warm up
        start = time.perf_counter()
        for step in range(trace.num_steps):
            router.route(trace.step(step), placement)
        return (time.perf_counter() - start) / trace.num_steps

    vectorized = time_router(FlexibleTokenRouter())
    reference = time_router(ReferenceTokenRouter())
    return {
        "num_experts": float(num_experts),
        "num_gpus": float(num_gpus),
        "repeats": float(trace.num_steps),
        "vectorized_ms": vectorized * 1e3,
        "reference_ms": reference * 1e3,
        "speedup": reference / vectorized if vectorized > 0 else float("inf"),
    }


def pipeline_run(
    num_moe_layers: int = 4,
    num_gpus: int = 16,
    num_experts: int = 32,
    num_steps: int = 30,
    tokens_per_gpu: int = 32_768,
    d_model: int = 2048,
    d_ffn: int = 8192,
    warmup: int = 5,
    seed: int = 0,
    overlap_efficiency: float = 1.0,
    model_dense_compute: bool = True,
    scheduler_config: SchedulerConfig | None = None,
) -> PipelineRunResult:
    """Run the multi-layer pipelined engine on a synthetic workload."""
    from repro.runtime.pipeline import build_engine

    model = MoEModelConfig(
        name=f"pipeline-{num_moe_layers}L-{num_experts}e",
        num_layers=2 * num_moe_layers,
        d_model=d_model,
        d_ffn=d_ffn,
        num_experts=num_experts,
    )
    engine = build_engine(
        cluster_for(num_gpus),
        model,
        num_moe_layers=num_moe_layers,
        overlap_efficiency=overlap_efficiency,
        model_dense_compute=model_dense_compute,
        scheduler_config=scheduler_config,
        seed=seed,
    )
    trace = make_multilayer_trace(
        num_moe_layers,
        num_experts,
        num_gpus,
        WorkloadConfig(
            tokens_per_step=tokens_per_gpu * num_gpus,
            num_steps=num_steps,
            seed=seed,
        ),
    )
    return simulate_pipeline(engine, trace, warmup=clamp_warmup(warmup, num_steps))


@dataclass(frozen=True)
class FaultsRunResult:
    """Outcome of one failure/straggler scenario (FlexMoE vs Static).

    Attributes:
        flexmoe: Elastic FlexMoE engine run (dynamic scheduling on).
        baseline: Identical engine/substrate/trace with scheduling
            disabled — forced eviction still happens (routing to a dead
            device is never valid), but nothing rebalances afterwards.
        schedule: The elasticity event stream both runs consumed.
        num_gpus: Cluster size.
        warmup: Cold-start steps excluded from the phase aggregates.
        flexmoe_rehomed: At the end of the FlexMoE run, every expert
            still holds the elastic replication floor (two distinct live
            devices, capped by the pool size) -- i.e. the failures'
            replica losses were genuinely rebuilt on the survivors.
        baseline_rehomed: Same for the static baseline.
        delta_fallbacks: Delta-evaluator fallbacks to full recomputation
            across both engines (0 when the delta hot path never went
            stale; the faults identity test requires 0).
    """

    flexmoe: PipelineRunResult
    baseline: PipelineRunResult
    schedule: ElasticitySchedule
    num_gpus: int
    warmup: int
    flexmoe_rehomed: bool
    baseline_rehomed: bool
    delta_fallbacks: int = 0

    def _phases(self, times: np.ndarray) -> dict[str, float]:
        """Pre-failure / disruption / final step-time aggregates."""
        n = times.size
        fail = self.schedule.first_failure_step()
        tail = times[max(n - max(5, n // 5), 0):]
        phases = {"final": float(tail.mean())}
        if fail is not None and self.warmup < fail < n:
            pre = times[self.warmup:fail]
            window = times[fail:min(fail + 5, n)]
            phases["pre_failure"] = float(pre.mean())
            phases["disruption_peak"] = float(window.max())
            phases["recovered"] = float(
                phases["final"] < phases["disruption_peak"]
            )
        return phases

    def summary(self) -> dict[str, object]:
        """Per-system phase aggregates plus the recovery verdict."""
        fx = self._phases(self.flexmoe.step_times)
        bl = self._phases(self.baseline.step_times)
        fx["rehomed"] = float(self.flexmoe_rehomed)
        bl["rehomed"] = float(self.baseline_rehomed)
        actions = float(
            sum(r.scheduling_actions for r in self.flexmoe.results)
        )
        return {
            "num_gpus": float(self.num_gpus),
            "num_events": float(len(self.schedule)),
            "first_failure_step": self.schedule.first_failure_step(),
            "flexmoe": fx,
            "baseline": bl,
            "flexmoe_actions": actions,
            "final_speedup": (
                bl["final"] / fx["final"] if fx["final"] > 0 else float("inf")
            ),
            "ok": bool(
                self.flexmoe_rehomed
                and fx.get("recovered", 1.0) > 0
                and actions > 0
            ),
        }


def placements_rehomed(engine, min_replicas: int) -> bool:
    """Every expert is fully re-homed on the *live* pool.

    Eviction guarantees nothing maps to a dead device, so the meaningful
    check is the replication floor: after however many failures the run
    injected, every layer's active placement must keep each expert on at
    least ``min_replicas`` distinct live devices (capped by the pool
    size). A silently-lost replica that the rescue machinery failed to
    rebuild fails this check. ``min_replicas=1`` is the survival check
    of the serving scenarios: every expert of every layer still owns a
    replica on a live device.
    """
    state = engine.cluster_state
    if state is None:
        return True
    live = state.live_mask()
    num_live = int(live.sum())
    for placement in engine.placements():
        # The floor is capped by what the surviving pool can even hold:
        # after enough permanent failures the slots may not fit two
        # replicas of every expert, and that is capacity loss, not a
        # re-homing failure.
        feasible = num_live * placement.slots_per_gpu // placement.num_experts
        floor = min(min_replicas, num_live, feasible)
        live_counts = placement.counts[:, live]
        if (live_counts.sum(axis=1) < 1).any():
            return False
        if ((live_counts > 0).sum(axis=1) < max(floor, 1)).any():
            return False
    return True


def faults_run(
    num_moe_layers: int = 2,
    num_gpus: int = 8,
    num_experts: int = 16,
    num_steps: int = 50,
    tokens_per_gpu: int = 16_384,
    d_model: int = 1024,
    d_ffn: int = 4096,
    warmup: int = 5,
    faults: FaultConfig | None = None,
    slow_gpus: int = 0,
    slow_factor: float = 0.6,
    spike_period: int | None = None,
    seed: int = 0,
) -> FaultsRunResult:
    """Run one seeded failure/straggler scenario: FlexMoE vs Static.

    Both engines consume the identical elasticity schedule, trace and
    (seed-matched) substrate; they differ only in whether the dynamic
    placement machinery is allowed to react. Deterministic under a fixed
    seed.
    """
    from repro.runtime.pipeline import build_engine

    if faults is None:
        faults = FaultConfig(
            num_failures=1,
            failure_step=max(5, num_steps // 4),
            recovery_steps=max(5, num_steps // 4),
            num_stragglers=1,
            straggler_factor=0.5,
            straggler_step=max(2, num_steps // 10),
            seed=seed,
        )
    cluster = cluster_for(num_gpus, slow_gpus=slow_gpus, slow_factor=slow_factor)
    schedule = ElasticitySchedule.from_fault_config(faults, num_gpus)
    model = MoEModelConfig(
        name=f"faults-{num_moe_layers}L-{num_experts}e",
        num_layers=2 * num_moe_layers,
        d_model=d_model,
        d_ffn=d_ffn,
        num_experts=num_experts,
    )
    trace = make_multilayer_trace(
        num_moe_layers,
        num_experts,
        num_gpus,
        WorkloadConfig(
            tokens_per_step=tokens_per_gpu * num_gpus,
            num_steps=num_steps,
            spike_period=spike_period,
            seed=seed,
        ),
    )

    # Two extra slots per GPU beyond the auto-sizing: the elastic
    # replication floor (min_replicas=2) pins cold experts at two copies,
    # so without slack the Expand/Shrink loop would have nothing to move.
    slots = auto_slots_per_gpu(num_experts, num_gpus) + 2
    flexmoe = build_engine(
        cluster, model, num_moe_layers=num_moe_layers,
        scheduler_config=SchedulerConfig(
            speed_aware_balance=True, min_replicas=2, slots_per_gpu=slots,
        ),
        elasticity=schedule, seed=seed,
    )
    flexmoe.name = "FlexMoE"
    # Scheduling off: an unreachable trigger threshold and no Migrate pass.
    static = build_engine(
        cluster, model, num_moe_layers=num_moe_layers,
        scheduler_config=SchedulerConfig(
            balance_threshold=1e9, migrate=False,
            min_replicas=2, slots_per_gpu=slots,
        ),
        elasticity=schedule, seed=seed,
    )
    static.name = "Static"

    # Warmup stays 0 so result step indices align with event steps; the
    # phase aggregates apply the warmup themselves.
    flex_result = simulate_pipeline(flexmoe, trace, warmup=0)
    static_result = simulate_pipeline(static, trace, warmup=0)
    return FaultsRunResult(
        flexmoe=flex_result,
        baseline=static_result,
        schedule=schedule,
        num_gpus=num_gpus,
        warmup=clamp_warmup(warmup, num_steps),
        flexmoe_rehomed=placements_rehomed(flexmoe, min_replicas=2),
        baseline_rehomed=placements_rehomed(static, min_replicas=2),
        delta_fallbacks=flexmoe.delta_fallbacks() + static.delta_fallbacks(),
    )


def faults_smoke(seed: int = 0) -> dict[str, object]:
    """:func:`faults_run` arguments of ``faults --smoke``: the fixed CI
    scenario, one failure at step 10 that rejoins 10 steps later plus one
    persistent half-speed straggler from step 4, on 2 MoE layers x 16
    experts over 8 GPUs for 40 steps."""
    return {
        "num_moe_layers": 2,
        "num_gpus": 8,
        "num_experts": 16,
        "num_steps": 40,
        "faults": FaultConfig(
            num_failures=1,
            failure_step=10,
            recovery_steps=10,
            num_stragglers=1,
            straggler_factor=0.5,
            straggler_step=4,
            seed=seed,
        ),
        "seed": seed,
    }


def quick_comparison(
    num_gpus: int = 8,
    num_experts: int = 16,
    num_steps: int = 50,
    seed: int = 0,
) -> ComparisonResult:
    """Small three-system comparison for the quickstart."""
    model = MoEModelConfig(
        name="quickstart",
        num_layers=4,
        d_model=1024,
        d_ffn=4096,
        num_experts=num_experts,
    )
    workload = WorkloadConfig(
        tokens_per_step=num_gpus * 32_768, num_steps=num_steps, seed=seed
    )
    return compare_systems(
        model=model,
        cluster=cluster_for(num_gpus),
        workload=workload,
        systems=FIGURE5_SYSTEMS,
        warmup=min(5, num_steps // 5),
        seed=seed,
    )
