"""Simulated training loops: run systems over routing traces.

:func:`simulate_training` drives one system through a trace and aggregates
the per-step results. :func:`compare_systems` builds the shared substrate
once and runs every system on the *same* trace — the paper's methodology:
identical model, data and hyper-parameters, differing only in the training
system.

:func:`simulate_pipeline` drives the multi-layer pipelined engine through a
:class:`~repro.workload.trace.MultiLayerTrace`, where every MoE layer of
the transformer schedules its own placement and the layers' All-to-All /
dense-compute / adjustment phases overlap per the paper's pipeline.

Both simulators are hosted on the unified discrete-event kernel
(:mod:`repro.sim`): steps are event sources on the shared clock, so the
same runs compose with elasticity schedules, serving traffic and stream
budgets declared in one :class:`~repro.sim.scenario.Scenario`.
The perf harness times the kernel against a plain inline ``engine.step``
loop (both with telemetry disabled), and ``tests/test_sim_identity.py``
asserts the two are decision- and metric-identical on seeded runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.baselines.base import MoESystem, StepResult, SystemContext, build_context
from repro.baselines.expert_parallel import ExpertParallelSystem
from repro.baselines.fastermoe import FasterMoESystem
from repro.baselines.flexmoe import FlexMoESystem
from repro.config import ClusterConfig, MoEModelConfig, WorkloadConfig
from repro.exceptions import SimulationError
from repro.runtime.pipeline import MultiLayerFlexMoEEngine, PipelineStepResult
from repro.sim import (
    ElasticitySource,
    PipelineStepSource,
    Scenario,
    SystemStepSource,
)
from repro.training.convergence import ConvergenceModel
from repro.training.metrics import (
    EfficiencyTrajectory,
    pipeline_phase_breakdown,
    summarize_pipeline_run,
    summarize_run,
    trajectory_from_results,
)
from repro.workload.synthetic import DriftingRoutingGenerator
from repro.workload.trace import MultiLayerTrace, RoutingTrace

#: Factory signature for constructing a system from a context.
SystemFactory = Callable[[SystemContext], MoESystem]

#: The paper's evaluation line-up (Figure 5) plus SWIPE (Figure 7a).
DEFAULT_SYSTEMS: tuple[SystemFactory, ...] = (
    ExpertParallelSystem,
    FasterMoESystem,
    FlexMoESystem,
)


@dataclass(frozen=True)
class TrainingRunResult:
    """Aggregated outcome of one system over one trace.

    Attributes:
        system: System name.
        results: Per-step results, in order.
        moe_layers: Number of MoE layers the per-layer step time is scaled
            by when reporting whole-model times.
    """

    system: str
    results: tuple[StepResult, ...]
    moe_layers: int = 1

    @property
    def step_times(self) -> np.ndarray:
        return np.array([r.step_time for r in self.results])

    @property
    def mean_step_time(self) -> float:
        return float(self.step_times.mean())

    @property
    def total_time(self) -> float:
        return float(self.step_times.sum()) * self.moe_layers

    @property
    def mean_token_efficiency(self) -> float:
        return float(np.mean([r.token_efficiency for r in self.results]))

    @property
    def diverted_fraction(self) -> float:
        assigned = sum(r.assigned_tokens for r in self.results)
        if assigned == 0:
            return 0.0
        return sum(r.diverted_tokens for r in self.results) / assigned

    @property
    def trajectory(self) -> EfficiencyTrajectory:
        return trajectory_from_results(list(self.results))

    def summary(self) -> dict[str, float]:
        return summarize_run(list(self.results))

    def time_to_quality(
        self,
        base_iterations: int,
        convergence: ConvergenceModel | None = None,
    ) -> float:
        """Figure 5's metric: seconds to reach the target quality."""
        model = convergence or ConvergenceModel()
        return self.moe_layers * model.time_to_quality(
            mean_step_time=self.mean_step_time,
            base_iterations=base_iterations,
            token_efficiency=self.mean_token_efficiency,
            diverted_fraction=self.diverted_fraction,
        )


def simulate_training(
    system: MoESystem,
    trace: RoutingTrace,
    moe_layers: int = 1,
    warmup: int = 0,
) -> TrainingRunResult:
    """Run ``system`` over every step of ``trace``.

    Args:
        system: The training system.
        trace: Per-step token assignments.
        moe_layers: Whole-model scaling of per-layer times.
        warmup: Initial steps executed but excluded from the aggregated
            results (cold-start transient; negligible in real multi-day
            runs but visible in short traces).
    """
    if moe_layers < 1:
        raise SimulationError("moe_layers must be >= 1")
    if not 0 <= warmup < trace.num_steps:
        raise SimulationError(
            f"warmup must be in [0, {trace.num_steps}), got {warmup}"
        )
    source = SystemStepSource(system, trace)
    Scenario(
        name=f"train-{system.name}",
        sources=(source,),
        duration=trace.num_steps,
    ).run()
    return TrainingRunResult(
        system=system.name,
        results=tuple(source.results[warmup:]),
        moe_layers=moe_layers,
    )


@dataclass(frozen=True)
class PipelineRunResult:
    """Aggregated outcome of the multi-layer engine over one trace.

    Unlike :class:`TrainingRunResult`, step times here already cover the
    WHOLE transformer step (all MoE layers plus the dense blocks), so no
    ``moe_layers`` rescaling applies.

    Attributes:
        event_log: Elasticity events the engine applied during the run,
            as ``(step, event)`` pairs (empty for static clusters).
    """

    engine: str
    results: tuple[PipelineStepResult, ...]
    num_moe_layers: int
    final_placement_signatures: tuple[bytes, ...] = ()
    event_log: tuple = ()

    @property
    def step_times(self) -> np.ndarray:
        return np.array([r.step_time for r in self.results])

    @property
    def live_gpus_per_step(self) -> np.ndarray:
        """Devices alive at each aggregated step (elastic runs)."""
        return np.array([r.live_gpus for r in self.results])

    @property
    def mean_step_time(self) -> float:
        return float(self.step_times.mean())

    @property
    def total_time(self) -> float:
        return float(self.step_times.sum())

    @property
    def mean_token_efficiency(self) -> float:
        return float(np.mean([r.token_efficiency for r in self.results]))

    @property
    def distinct_final_placements(self) -> int:
        """Distinct per-layer placements at the end of the run."""
        return len(set(self.final_placement_signatures))

    def summary(self) -> dict[str, float]:
        return summarize_pipeline_run(list(self.results))

    def phase_breakdown(self) -> dict[str, float]:
        """Mean overlap-aware step-time decomposition."""
        return pipeline_phase_breakdown(list(self.results))


def simulate_pipeline(
    engine: MultiLayerFlexMoEEngine,
    trace: MultiLayerTrace,
    warmup: int = 0,
) -> PipelineRunResult:
    """Run the multi-layer engine over every step of ``trace``.

    The run is hosted on the shared discrete-event kernel: steps become
    TRIGGER/STEP/STREAM events and any elasticity schedule becomes a
    FAILURE event source, instead of being polled per step.

    Args:
        engine: The pipelined engine (one scheduler per MoE layer).
        trace: Per-layer per-step token assignments; its layer count must
            match the engine's.
        warmup: Initial steps executed but excluded from the aggregates.
    """
    if trace.num_layers != engine.num_moe_layers:
        raise SimulationError(
            f"trace has {trace.num_layers} layers but the engine expects "
            f"{engine.num_moe_layers}"
        )
    if not 0 <= warmup < trace.num_steps:
        raise SimulationError(
            f"warmup must be in [0, {trace.num_steps}), got {warmup}"
        )
    step_source = PipelineStepSource(engine, trace)
    sources: tuple = (step_source,)
    if getattr(engine, "elasticity", None) is not None:
        sources = (ElasticitySource(engine), step_source)
    Scenario(
        name=f"pipeline-{engine.name}",
        sources=sources,
        duration=trace.num_steps,
    ).run()
    results = step_source.results
    return PipelineRunResult(
        engine=engine.name,
        results=tuple(results[warmup:]),
        num_moe_layers=engine.num_moe_layers,
        final_placement_signatures=engine.placement_signatures(),
        event_log=getattr(engine, "event_log", ()),
    )


@dataclass(frozen=True)
class ComparisonResult:
    """Results of several systems on the same workload."""

    runs: dict[str, TrainingRunResult]
    context: SystemContext = field(repr=False, compare=False, default=None)

    def __getitem__(self, system: str) -> TrainingRunResult:
        return self.runs[system]

    @property
    def systems(self) -> tuple[str, ...]:
        return tuple(self.runs)

    def speedup(self, system: str, baseline: str = "DeepSpeed") -> float:
        """Mean-step-time speedup of ``system`` over ``baseline``."""
        return self.runs[baseline].mean_step_time / self.runs[system].mean_step_time

    def summary(self) -> str:
        """Human-readable comparison table."""
        lines = [
            f"{'system':<12} {'step(ms)':>9} {'tok-eff':>8} {'exp-eff':>8} "
            f"{'util':>6} {'balance':>8}"
        ]
        for name, run in self.runs.items():
            s = run.summary()
            lines.append(
                f"{name:<12} {1e3 * s['mean_step_time']:>9.3f} "
                f"{s['mean_token_efficiency']:>8.3f} "
                f"{s['mean_expert_efficiency']:>8.3f} "
                f"{s['mean_utilization']:>6.3f} {s['mean_balance']:>8.3f}"
            )
        return "\n".join(lines)


def compare_systems(
    model: MoEModelConfig,
    cluster: ClusterConfig,
    workload: WorkloadConfig,
    systems: Sequence[SystemFactory] | None = None,
    trace: RoutingTrace | None = None,
    moe_layers: int | None = None,
    warmup: int = 0,
    seed: int = 0,
) -> ComparisonResult:
    """Run every system on an identical workload and substrate.

    Args:
        model: MoE architecture (also sizes the cost models).
        cluster: Cluster shape.
        workload: Trace parameters (ignored when ``trace`` given).
        systems: System factories; defaults to DeepSpeed / FasterMoE /
            FlexMoE (the Figure 5 line-up).
        trace: Pre-generated trace to reuse across comparisons.
        moe_layers: MoE layers for whole-model time scaling; defaults to
            every other transformer layer (the paper's models).
        warmup: Cold-start steps excluded from every system's aggregates.
        seed: Substrate seed (profiling noise, executor jitter).
    """
    context = build_context(cluster, model, seed=seed)
    if trace is None:
        generator = DriftingRoutingGenerator(
            model.num_experts, context.topology.num_gpus, workload
        )
        trace = generator.generate()
    if moe_layers is None:
        moe_layers = max(1, model.num_layers // 2)
    runs: dict[str, TrainingRunResult] = {}
    for factory in systems or DEFAULT_SYSTEMS:
        system = factory(context)
        runs[system.name] = simulate_training(
            system, trace, moe_layers, warmup=warmup
        )
    return ComparisonResult(runs=runs, context=context)
