"""FlexMoE reproduction: dynamic device placement for sparse MoE training.

This library reproduces *FlexMoE: Scaling Large-scale Sparse Pre-trained
Model Training via Dynamic Device Placement* (Nie et al., SIGMOD 2023) as a
self-contained Python system:

* :mod:`repro.core` — the paper's contribution: the vExpert abstraction,
  Expand/Shrink/Migrate primitives, cost models with incremental
  delta-cost what-if evaluation (``docs/performance.md``), flexible token
  routing, Policy Maker and Scheduler;
* :mod:`repro.cluster` — a simulated multi-GPU cluster substrate (devices,
  topology, collectives, profiler, communicator groups);
* :mod:`repro.workload` — routing traces with calibrated skew/drift and
  synthetic datasets;
* :mod:`repro.model` — a NumPy transformer/MoE stack with real training for
  the quality experiments;
* :mod:`repro.baselines` — DeepSpeed-style expert parallelism, FasterMoE
  shadowing, SWIPE and FlexMoE as pluggable systems;
* :mod:`repro.sim` — the unified discrete-event simulation kernel:
  one clock, ``(time, priority, seq)``-ordered events, composable
  :class:`~repro.sim.scenario.Scenario` specs (``docs/simulation.md``);
* :mod:`repro.runtime` — ground-truth step execution, adjustment
  transfer pricing and the per-layer best-effort pipelines;
* :mod:`repro.training` — end-to-end simulated training loops, efficiency
  metrics and the convergence model;
* :mod:`repro.serving` — the online serving subsystem: SLO-aware request
  streams, admission/micro-batching, latency-triggered dynamic
  placement, and multi-tenant serving (SLO classes, weighted-fair
  priority admission with quotas, preemption of in-flight batches,
  per-class attainment + fairness reporting; ``docs/serving.md``);
* :mod:`repro.bench` — the experiment harness regenerating every table and
  figure of the paper's evaluation, plus the faults, perf and serving
  comparison suites.

Quickstart::

    from repro import quick_simulation
    result = quick_simulation(num_gpus=8, num_experts=16, num_steps=50)
    print(result.summary())

Multi-layer pipelined engine (every MoE layer schedules its own
placement; All-to-All overlaps the dense blocks)::

    from repro import pipeline_simulation
    run = pipeline_simulation(num_moe_layers=4, num_gpus=16, num_experts=32)
    print(run.phase_breakdown())

Elastic-cluster scenarios (device failures, stragglers, recoveries;
see ``docs/elasticity.md``)::

    from repro.bench.harness import faults_run
    result = faults_run(num_gpus=8, num_experts=16, num_steps=40)
    print(result.summary())

Online serving (SLO-aware request streams driving dynamic placement;
see ``docs/serving.md``)::

    from repro.bench.serving import serving_run
    result = serving_run(num_requests=250)
    print(result.summary())

Multi-tenant serving (SLO classes, priority admission, preemption;
``python -m repro serve --multi-tenant``)::

    from repro.bench.serving import multitenant_run
    result = multitenant_run(num_requests=200)
    print(result.ok, result.summary()["interactive_attainment"])

Composed scenarios on the shared kernel clock (serving + wall-clock
elasticity + metered migration budget; see ``docs/simulation.md``)::

    from repro.sim.composed import composed_scenario_run
    report = composed_scenario_run(smoke=True)
    print(report["ok"], report["serving"]["p99_latency_s"])

Or from the command line:
``python -m repro run|bench|compare|faults|perf|serve|scenario``.
"""

from repro.config import (
    ClusterConfig,
    DeviceSpec,
    FaultConfig,
    MoEModelConfig,
    SchedulerConfig,
    WorkloadConfig,
)
from repro.exceptions import (
    ConfigurationError,
    ElasticityError,
    ModelError,
    PlacementError,
    ProfilingError,
    ReproError,
    RoutingError,
    SchedulingError,
    SimulationError,
    TopologyError,
)

__version__ = "1.1.0"

__all__ = [
    "ClusterConfig",
    "ConfigurationError",
    "DeviceSpec",
    "ElasticityError",
    "FaultConfig",
    "MoEModelConfig",
    "ModelError",
    "PlacementError",
    "ProfilingError",
    "ReproError",
    "RoutingError",
    "SchedulerConfig",
    "SchedulingError",
    "SimulationError",
    "TopologyError",
    "WorkloadConfig",
    "__version__",
    "pipeline_simulation",
    "quick_simulation",
]


def pipeline_simulation(
    num_moe_layers: int = 4,
    num_gpus: int = 16,
    num_experts: int = 32,
    num_steps: int = 30,
    seed: int = 0,
):
    """Run the multi-layer pipelined FlexMoE engine and return the results.

    A convenience entry point for the quickstart; see
    :func:`repro.bench.harness.pipeline_run` for every knob and
    :func:`repro.training.loop.simulate_pipeline` for the full API.
    """
    from repro.bench.harness import pipeline_run

    return pipeline_run(
        num_moe_layers=num_moe_layers,
        num_gpus=num_gpus,
        num_experts=num_experts,
        num_steps=num_steps,
        seed=seed,
    )


def quick_simulation(
    num_gpus: int = 8,
    num_experts: int = 16,
    num_steps: int = 50,
    seed: int = 0,
):
    """Run a small FlexMoE-vs-baselines simulation and return the results.

    A convenience entry point for the quickstart example; see
    :func:`repro.training.loop.compare_systems` for the full API.
    """
    from repro.bench.harness import quick_comparison

    return quick_comparison(
        num_gpus=num_gpus,
        num_experts=num_experts,
        num_steps=num_steps,
        seed=seed,
    )
