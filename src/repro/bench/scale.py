"""Datacenter-scale sweep: ``python -m repro scale``.

PR 10's question is blunt: does the control plane survive the jump from
the paper's testbed (64 GPUs) to datacenter scale (4096 GPUs)?  Every
hot-path structure that is O(cluster) per scheduling round — dense
``Bw(g, g')`` matrices, full-cluster shrink sweeps, per-expert rebuild
loops — is invisible at 16 GPUs and fatal at 4096.  This suite sweeps
cluster size with experts and layers scaled alongside (both grow with
``sqrt(G/64)``, keeping experts-per-GPU density falling the way real
deployments over-provision devices faster than experts) and records
three throughput families per size:

* :func:`planner_scale_benchmark` — planner rounds/second of the
  delta-cost search under the **flat** full-cluster sweep (the retained
  reference) vs the **hierarchical** two-level search (intra-node
  candidates first, cross-node escalation only when no intra-node
  candidate beats the trigger).  Decision logs are compared at every
  size; where the two searches legitimately pick different (but
  comparably good) placements, the final configurations must price
  within :data:`QUALITY_RTOL` of each other.
* :func:`engine_scale_benchmark` — end-to-end simulated steps/second of
  the multi-layer engine, with the seconds spent in the router, the
  executor and the scheduler.  A size whose dense input trace and
  per-step layer flows do not fit :data:`ENGINE_MEMORY_BUDGET_BYTES`
  records that footprint as the reason it was skipped instead of
  silently shrinking the claim.
* kernel events/second — the discrete-event kernel's dispatch
  throughput with the event fan-out scaled to the size's layer count
  (reusing :func:`~repro.bench.perf.kernel_events_benchmark`), gated by
  the same floor CI applies to the perf suite.

The named gates (:data:`repro.bench.gates.SCALE`) require: zero delta
fallbacks anywhere, the hierarchical search at least matching flat
rounds/sec at every size at or above :data:`HIER_MUST_WIN_GPUS`,
decision identity *or* the quality gate at every size, every engine
measurement run (a skip is allowed only above
:data:`~repro.bench.gates.ENGINE_MUST_RUN_GPUS` devices), and every
kernel-events figure above the floor.
``python -m repro scale --smoke`` runs the 64- and 1024-device columns
in CI; the committed ``BENCH_scale.json`` records the full sweep.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.gates import seal
from repro.bench.harness import cluster_for
from repro.bench.perf import (
    KERNEL_EVENTS_PER_SEC_FLOOR,
    kernel_events_benchmark,
    planner_setup,
    replay_planners,
    write_report,
)
from repro.cluster.topology import ClusterTopology
from repro.config import MoEModelConfig, SchedulerConfig, WorkloadConfig
from repro.core.cost_model import MoECostModel
from repro.core.migration import MigrationPlanner
from repro.core.policy import PolicyMaker
from repro.workload.synthetic import make_multilayer_trace
from repro.workload.trace import COUNT_DTYPE, RoutingTrace

#: Default report location (repo root when run from a checkout).
REPORT_FILENAME = "BENCH_scale.json"

#: Cluster sizes of the full sweep; the smoke subset keeps the smallest
#: (decision-quality anchor) and the smallest datacenter-scale size (the
#: hierarchical search must already win there).
SWEEP_SIZES = (64, 256, 1024, 4096)
SMOKE_SIZES = (64, 1024)

#: Resident bytes the engine benchmark may hold in its two size-bound
#: arrays: the dense ``(layers, steps, experts, gpus)`` int32 input trace
#: and one step's per-layer ``(gpus, gpus)`` int64 flows. Beyond it the
#: run is an allocation test, not a benchmark.
ENGINE_MEMORY_BUDGET_BYTES = 1 << 30

#: From this size up the hierarchical search must beat the flat sweep on
#: planner rounds/sec (below it, both are fast and flat stays default).
HIER_MUST_WIN_GPUS = 1024

#: Timed replays per search mode, alternating flat and hierarchical; the
#: ``hierarchical_wins_at_scale`` gate reads the median per-pair ratio.
PLANNER_TIMED_REPLAYS = 3

#: When the two searches pick different placements, the hierarchical
#: final configuration must price within this of the flat one.
QUALITY_RTOL = 0.05


def scale_config(num_gpus: int) -> tuple[int, int]:
    """``(num_experts, num_moe_layers)`` for a sweep size.

    Both grow with ``sqrt(num_gpus / 64)`` from the paper-scale anchor
    (64 experts, 4 MoE layers at 64 GPUs): 4096 devices run 512 experts
    across 32 MoE layers.
    """
    factor = int(round(np.sqrt(num_gpus / 64)))
    return 64 * max(1, factor), 4 * max(1, factor)


def _scale_model(num_gpus: int, num_experts: int, layers: int) -> MoEModelConfig:
    return MoEModelConfig(
        name=f"scale-{num_gpus}g",
        num_layers=2 * layers,
        d_model=2048,
        d_ffn=8192,
        num_experts=num_experts,
    )


def _planner_replay(
    cost_model: MoECostModel,
    topology: ClusterTopology,
    trace: RoutingTrace,
    placement_search: str,
) -> tuple[float, list, float, int]:
    """One full planner replay in the given search mode.

    Returns ``(seconds, decision log, final estimated step time,
    fallbacks)``; the final estimate is what the quality gate compares
    across modes.
    """
    policy = PolicyMaker(
        cost_model,
        use_delta=True,
        topology=topology,
        placement_search=placement_search,
    )
    migration = MigrationPlanner(
        cost_model,
        topology,
        use_delta=True,
        memo=policy.memo,
        placement_search=placement_search,
        delta=policy.delta,
    )
    elapsed, decisions, placement = replay_planners(policy, migration, trace)
    # Price the final configuration through the delta evaluator's O(E*G)
    # rebase — the reference estimate_step_time solves the full router's
    # fractional relaxation, which is exactly the O(cluster^2) work this
    # sweep exists to avoid.
    final_time = policy.delta.rebase(
        trace.step(trace.num_steps - 1), placement
    )
    # The planners share one evaluator (see MigrationPlanner's ``delta``),
    # so its counter already covers both passes.
    return elapsed, decisions, float(final_time), int(policy.delta.fallbacks)


def planner_scale_benchmark(
    num_gpus: int,
    num_experts: int,
    num_steps: int = 4,
    tokens_per_gpu: int = 32_768,
    seed: int = 0,
) -> dict[str, object]:
    """Flat vs hierarchical planner rounds/sec at one cluster size.

    Both modes replay the identical drifting trace from the identical
    balanced placement on the identical (delta-path) evaluator; only the
    candidate-search order differs.  An untimed warm-up replay per mode
    pre-populates the profile's lazy AllReduce cache so neither timed
    pass pays first-probe costs for groups the other already visited.
    The modes then alternate for :data:`PLANNER_TIMED_REPLAYS` timed
    replays each, so a slow spell of a shared host hits both; the
    seconds are each mode's median and ``speedup`` is the median of the
    per-pair ``flat / hierarchical`` ratios.
    """
    topology, cost_model, trace = planner_setup(
        _scale_model(num_gpus, num_experts, layers=2),
        num_gpus,
        num_steps,
        tokens_per_gpu,
        seed,
    )
    rounds = 2 * trace.num_steps  # policy round + migrate round per step

    # Warm-up: each mode visits its own replica groups; replaying both
    # untimed keeps lazy AllReduce probes out of both timed passes.
    _planner_replay(cost_model, topology, trace, "flat")
    _planner_replay(cost_model, topology, trace, "hierarchical")

    flat_runs, hier_runs = [], []
    for _ in range(PLANNER_TIMED_REPLAYS):
        flat_runs.append(_planner_replay(cost_model, topology, trace, "flat"))
        hier_runs.append(
            _planner_replay(cost_model, topology, trace, "hierarchical")
        )
    # Replays of one mode are deterministic: any one's decisions and
    # final estimate stand for all of them.
    _, flat_log, flat_time, _ = flat_runs[-1]
    _, hier_log, hier_time, _ = hier_runs[-1]
    flat_s = float(np.median([run[0] for run in flat_runs]))
    hier_s = float(np.median([run[0] for run in hier_runs]))
    fallbacks = sum(run[3] for run in flat_runs + hier_runs)
    quality_ratio = hier_time / flat_time if flat_time > 0 else float("inf")
    return {
        "num_gpus": num_gpus,
        "num_experts": num_experts,
        "num_steps": num_steps,
        "rounds": rounds,
        "flat_seconds": flat_s,
        "hierarchical_seconds": hier_s,
        "flat_rounds_per_sec": rounds / flat_s if flat_s > 0 else 0.0,
        "hierarchical_rounds_per_sec": rounds / hier_s if hier_s > 0 else 0.0,
        "speedup": float(np.median([
            flat[0] / hier[0] if hier[0] > 0 else float("inf")
            for flat, hier in zip(flat_runs, hier_runs)
        ])),
        "timed_replays": PLANNER_TIMED_REPLAYS,
        "decisions_match": flat_log == hier_log,
        "flat_final_step_time": flat_time,
        "hierarchical_final_step_time": hier_time,
        "quality_ratio": quality_ratio,
        "quality_within_epsilon": bool(quality_ratio <= 1.0 + QUALITY_RTOL),
        "quality_rtol": QUALITY_RTOL,
        "fallbacks": float(fallbacks),
    }


def engine_footprint_bytes(
    num_gpus: int, num_experts: int, num_moe_layers: int, num_steps: int
) -> dict[str, int]:
    """Bytes of the engine benchmark's two size-bound arrays: the input
    trace, in the traces' count dtype, and one step's int64 flows."""
    cells = num_moe_layers * num_steps * num_experts * num_gpus
    return {
        "trace_bytes": COUNT_DTYPE.itemsize * cells,
        "flow_bytes": 8 * num_moe_layers * num_gpus * num_gpus,
    }


def engine_scale_benchmark(
    num_gpus: int,
    num_experts: int,
    num_moe_layers: int,
    num_steps: int = 4,
    tokens_per_gpu: int = 16_384,
    seed: int = 0,
) -> dict[str, object]:
    """End-to-end simulated steps/sec of the multi-layer engine.

    ``stage_seconds`` splits the wall clock into the router (the
    engine's stacked ``route``), the pipelined executor (``execute``)
    and the layers' schedulers (``on_step``). A size whose
    :func:`engine_footprint_bytes` exceeds
    :data:`ENGINE_MEMORY_BUDGET_BYTES` returns a skip record naming that
    footprint.
    """
    footprint = engine_footprint_bytes(
        num_gpus, num_experts, num_moe_layers, num_steps
    )
    if sum(footprint.values()) > ENGINE_MEMORY_BUDGET_BYTES:
        return {
            "num_gpus": num_gpus,
            **footprint,
            "skipped": (
                f"dense input trace ({num_moe_layers}, {num_steps}, "
                f"{num_experts}, {num_gpus}) {COUNT_DTYPE} is "
                f"{footprint['trace_bytes'] / 1e9:.2f} GB and one step's "
                f"{num_moe_layers} ({num_gpus}, {num_gpus}) int64 flows are "
                f"{footprint['flow_bytes'] / 1e9:.2f} GB, over the "
                f"{ENGINE_MEMORY_BUDGET_BYTES / 1e9:.2f} GB engine budget"
            ),
        }
    from repro.runtime.pipeline import build_engine
    from repro.training.loop import simulate_pipeline

    model = _scale_model(num_gpus, num_experts, num_moe_layers)
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
    engine = build_engine(
        cluster_for(num_gpus),
        model,
        num_moe_layers=num_moe_layers,
        scheduler_config=SchedulerConfig(),
        seed=seed,
    )
    stages = dict.fromkeys(("router", "executor", "scheduler"), 0.0)
    _time_stage(engine, "route", stages, "router")
    _time_stage(engine.pipelined_executor, "execute", stages, "executor")
    for layer in engine.layers:
        _time_stage(layer.scheduler, "on_step", stages, "scheduler")
    start = time.perf_counter()
    result = simulate_pipeline(engine, trace, warmup=1)
    elapsed = time.perf_counter() - start
    return {
        "num_gpus": num_gpus,
        "num_experts": num_experts,
        "num_moe_layers": num_moe_layers,
        "num_steps": num_steps,
        **footprint,
        "seconds": elapsed,
        "steps_per_sec": num_steps / elapsed if elapsed > 0 else 0.0,
        "stage_seconds": stages,
        "mean_sim_step_time": result.mean_step_time,
        "fallbacks": float(engine.delta_fallbacks()),
    }


def _time_stage(owner: object, method: str, stages: dict, stage: str) -> None:
    """Shadow ``owner.method`` with a wrapper adding its wall clock to
    ``stages[stage]``."""
    inner = getattr(owner, method)

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            stages[stage] += time.perf_counter() - start

    setattr(owner, method, timed)


def kernel_events_scale_benchmark(
    num_moe_layers: int, num_ticks: int = 1500, seed: int = 0
) -> dict[str, object]:
    """Kernel dispatch throughput on a synthetic tie load that grows
    with the layer count.

    The per-tick fan is ``3 * num_moe_layers`` same-time events (see
    :func:`~repro.bench.perf.kernel_events_benchmark`). The engine
    itself schedules three events per *step*, not per layer
    (:class:`~repro.sim.sources.PipelineStepSource`), so this is a
    synthetic load that only ties more events per instant at larger
    configs, not a replay of the engine's schedule.
    """
    result = kernel_events_benchmark(
        num_ticks=num_ticks,
        fan=3 * num_moe_layers,
        seed=seed,
        repeats=2,
    )
    result["num_moe_layers"] = num_moe_layers
    return result


def scale_suite(smoke: bool = False, seed: int = 0) -> dict[str, object]:
    """The full datacenter-scale sweep report.

    ``smoke`` keeps the 64- and 1024-device columns (seconds, not
    minutes) without changing the structure; ``report["gates"]`` holds
    the named :data:`~repro.bench.gates.SCALE` verdicts and ``ok``
    their conjunction.
    """
    sizes = SMOKE_SIZES if smoke else SWEEP_SIZES
    num_steps = 3 if smoke else 4
    num_ticks = 600 if smoke else 1500
    entries = []
    for num_gpus in sizes:
        num_experts, layers = scale_config(num_gpus)
        planner = planner_scale_benchmark(
            num_gpus, num_experts, num_steps=num_steps, seed=seed
        )
        engine = engine_scale_benchmark(
            num_gpus, num_experts, layers, num_steps=num_steps, seed=seed
        )
        kernel_events = kernel_events_scale_benchmark(
            layers, num_ticks=num_ticks, seed=seed
        )
        entries.append(
            {
                "num_gpus": num_gpus,
                "num_experts": num_experts,
                "num_moe_layers": layers,
                "planner": planner,
                "engine": engine,
                "kernel_events": kernel_events,
            }
        )

    fallbacks = sum(
        float(e["planner"]["fallbacks"])
        + float(e["engine"].get("fallbacks", 0.0))
        for e in entries
    )
    return seal({
        "suite": "scale",
        "smoke": smoke,
        "seed": seed,
        "sizes": entries,
        "hier_must_win_gpus": HIER_MUST_WIN_GPUS,
        "engine_memory_budget_bytes": ENGINE_MEMORY_BUDGET_BYTES,
        "events_per_sec_floor": KERNEL_EVENTS_PER_SEC_FLOOR,
        "total_fallbacks": fallbacks,
    })


__all__ = [
    "REPORT_FILENAME",
    "SWEEP_SIZES",
    "SMOKE_SIZES",
    "ENGINE_MEMORY_BUDGET_BYTES",
    "HIER_MUST_WIN_GPUS",
    "PLANNER_TIMED_REPLAYS",
    "QUALITY_RTOL",
    "scale_config",
    "planner_scale_benchmark",
    "engine_footprint_bytes",
    "engine_scale_benchmark",
    "kernel_events_scale_benchmark",
    "scale_suite",
    "write_report",
]
