"""Scheduling-overhead perf harness: ``python -m repro perf``.

FlexMoE's viability rests on the Policy Maker being cheap enough to run
online; this module measures exactly that and records the repo's perf
trajectory in a machine-readable report (``BENCH_step_overhead.json``).
The benchmarks:

* :func:`planner_benchmark` — planner rounds/second of the delta-cost
  search (:class:`~repro.core.delta.DeltaStepCost`) against the retained
  full-recompute reference evaluator, on one drifting single-layer
  scenario.  Both searches run the Policy Maker *and* the Migrate planner
  and must produce identical action sequences — a mismatch marks the run
  failed.  A separate untimed pass records the replay's allocation
  footprint (tracemalloc peak, retained blocks per step, peak RSS) so
  per-step allocation storms regress visibly in the report.
* :func:`kernel_overhead_benchmark` — simulated steps/second of the
  unified discrete-event kernel (:mod:`repro.sim`) against a plain
  inline ``engine.step`` loop on the identical engine/trace, both with
  telemetry disabled: the kernel's heap events must stay within 5% of
  the inline loop AND produce identical simulated results.  A third pass per repeat runs under a
  full telemetry session and must reproduce those results while
  recording trace and timeline events -- observation must never change
  a decision.
* :func:`serving_events_benchmark` / :func:`kernel_events_benchmark` —
  logical serving events/second of the serving event machinery and raw
  kernel dispatch events/second on a tie-heavy schedule, each gated by
  a CI floor.

:func:`perf_suite` composes them and seals the report with the named
gates of :data:`repro.bench.gates.STEP_OVERHEAD`: the planner's delta
evaluators report **zero fallbacks** to full recomputation, every
decision/simulation equivalence holds, the event kernel stays within
its overhead tolerance, the memo hits, and both event benchmarks clear
their floors.  CI runs ``python -m repro perf --smoke`` and then
``python -m repro check BENCH_step_overhead.json``, so neither the delta
hot path nor the kernel hosting can silently regress, and telemetry
observation can never silently change a decision.
"""

from __future__ import annotations

import contextlib
import gc
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.bench.gates import seal
from repro.bench.harness import cluster_for
from repro.cluster.profiler import Profiler
from repro.cluster.topology import ClusterTopology
from repro.config import (
    MoEModelConfig,
    WorkloadConfig,
    auto_slots_per_gpu,
)
from repro.core.cost_model import MoECostModel
from repro.core.migration import MigrationPlanner
from repro.core.placement import Placement
from repro.core.policy import PolicyMaker
from repro.workload.synthetic import (
    DriftingRoutingGenerator,
    make_multilayer_trace,
)

#: Default report location (repo root when run from a checkout).
REPORT_FILENAME = "BENCH_step_overhead.json"

#: CI floors for the event-throughput benchmarks (events per second of
#: wall-clock). Deliberately ~10x below cold-container measurements so
#: they catch order-of-magnitude regressions (a dead cache, accidental
#: per-event allocation storms), not machine jitter.
SERVING_EVENTS_PER_SEC_FLOOR = 2_000.0
KERNEL_EVENTS_PER_SEC_FLOOR = 30_000.0


def _planner_pass(
    cost_model: MoECostModel,
    topology: ClusterTopology,
    trace,
    slots: int,
    use_delta: bool,
) -> tuple[float, list, PolicyMaker, MigrationPlanner]:
    """One full planner replay: make_plan + Migrate pass every step.

    Returns (seconds, decision log, policy, migration planner).  Decisions
    are applied so the placement evolves exactly as a live scheduler's
    would; with matching decision logs the delta and reference passes do
    identical scheduling work.
    """
    num_experts = cost_model.model.num_experts
    policy = PolicyMaker(cost_model, use_delta=use_delta)
    # Sharing the policy's memo lets the Migrate pass's per-move baseline
    # (which re-prices the exact configuration the policy just scored)
    # hit the cache instead of re-routing from scratch -- mirroring the
    # Scheduler's own wiring.
    migration = MigrationPlanner(
        cost_model, topology, use_delta=use_delta, memo=policy.memo
    )
    placement = Placement.balanced(num_experts, topology.num_gpus, slots)
    decisions: list = []
    start = time.perf_counter()
    for step in range(trace.num_steps):
        assignment = trace.step(step)
        decision = policy.make_plan(assignment, placement)
        for action in decision.actions:
            action.apply(placement)
        moves = migration.plan(assignment, placement)
        for move in moves:
            move.apply(placement)
        decisions.append((decision.actions, tuple(moves)))
    elapsed = time.perf_counter() - start
    return elapsed, decisions, policy, migration


def _allocation_footprint(
    cost_model: MoECostModel,
    topology: ClusterTopology,
    trace,
    slots: int,
) -> dict[str, float]:
    """Memory footprint of one delta planner replay (untimed).

    Runs a full planner replay under :mod:`tracemalloc` — tracing slows
    the pass severalfold, which is why this is a separate pass that never
    touches the timed measurements.  Reported columns:

    * ``tracemalloc_peak_kb`` / ``tracemalloc_current_kb`` — peak and
      end-of-replay python-allocated memory during the replay.  An
      accidental per-candidate allocation storm (the class of regression
      the O(changed) hot paths exist to prevent) shows up as a peak far
      above the steady-state current value.
    * ``live_blocks_per_step`` — traced blocks still alive after the
      replay divided by steps: the *retained* footprint growth rate.  A
      leaky memo or an unbounded history list climbs here.
    * ``net_alloc_blocks_per_step`` — interpreter-wide net allocated
      blocks per step (:func:`sys.getallocatedblocks` delta), which also
      counts allocations tracemalloc cannot see.
    * ``peak_rss_kb`` — the process's lifetime peak resident set
      (``ru_maxrss``); monotone across the whole benchmark process, so
      only meaningful as a ceiling, not a per-pass delta.
    """
    import resource
    import tracemalloc

    gc.collect()
    blocks_before = sys.getallocatedblocks()
    tracemalloc.start()
    try:
        _planner_pass(cost_model, topology, trace, slots, use_delta=True)
        current, peak = tracemalloc.get_traced_memory()
        live_blocks = sum(
            stat.count
            for stat in tracemalloc.take_snapshot().statistics("filename")
        )
    finally:
        tracemalloc.stop()
    net_blocks = sys.getallocatedblocks() - blocks_before
    steps = max(trace.num_steps, 1)
    return {
        "tracemalloc_peak_kb": peak / 1024.0,
        "tracemalloc_current_kb": current / 1024.0,
        "live_blocks_per_step": live_blocks / steps,
        "net_alloc_blocks_per_step": net_blocks / steps,
        "peak_rss_kb": float(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        ),
    }


def planner_benchmark(
    num_experts: int = 64,
    num_gpus: int = 16,
    num_steps: int = 30,
    tokens_per_gpu: int = 32_768,
    skew: float = 1.3,
    seed: int = 0,
) -> dict[str, object]:
    """Planner rounds/sec: delta-cost search vs the reference evaluator.

    One planner round = one Policy Maker ``make_plan`` plus one Migrate
    ``plan`` on the same assignment.  Both passes replay the identical
    drifting trace from the identical initial placement against the same
    noisy profile, and their decision logs must match exactly.
    """
    model = MoEModelConfig(
        name=f"perf-{num_experts}e",
        num_layers=2,
        d_model=2048,
        d_ffn=8192,
        num_experts=num_experts,
    )
    topology = ClusterTopology(cluster_for(num_gpus))
    profile = Profiler(topology, noise=0.02, seed=seed).profile(model)
    cost_model = MoECostModel(profile, model)
    trace = DriftingRoutingGenerator(
        num_experts,
        num_gpus,
        WorkloadConfig(
            tokens_per_step=tokens_per_gpu * num_gpus,
            num_steps=num_steps,
            skew=skew,
            seed=seed,
        ),
    ).generate()
    slots = auto_slots_per_gpu(num_experts, num_gpus)
    rounds = 2 * trace.num_steps  # policy round + migrate round per step

    # Untimed warm-up replay: both timed passes visit the same replica
    # groups (their decisions are identical), so pre-populating the
    # profile's lazy AllReduce cache keeps first-probe costs out of the
    # timings — whichever pass runs first would otherwise pay them all.
    _planner_pass(cost_model, topology, trace, slots, use_delta=True)

    ref_s, ref_decisions, ref_policy, _ = _planner_pass(
        cost_model, topology, trace, slots, use_delta=False
    )
    delta_s, delta_decisions, policy, migration = _planner_pass(
        cost_model, topology, trace, slots, use_delta=True
    )
    fallbacks = policy.delta.fallbacks + migration.delta.fallbacks
    allocation = _allocation_footprint(cost_model, topology, trace, slots)
    return {
        "num_experts": num_experts,
        "num_gpus": num_gpus,
        "num_steps": num_steps,
        "rounds": rounds,
        "allocation": allocation,
        "reference_seconds": ref_s,
        "delta_seconds": delta_s,
        "reference_rounds_per_sec": rounds / ref_s if ref_s > 0 else 0.0,
        "delta_rounds_per_sec": rounds / delta_s if delta_s > 0 else 0.0,
        "speedup": ref_s / delta_s if delta_s > 0 else float("inf"),
        "decisions_match": ref_decisions == delta_decisions,
        "delta": {**policy.delta.stats(), **{
            f"migration_{k}": v for k, v in migration.delta.stats().items()
        }},
        "fallbacks": float(fallbacks),
        "memo": ref_policy.memo.stats(),
    }


@contextlib.contextmanager
def _gc_quiet():
    """Keep the collector out of a timed region.

    The overhead benchmarks gate single-digit percentages; one GC pass
    landing inside a ~300ms timed window (routine in a long-lived test
    process) is enough to breach a 5% tolerance. Collect up front so the
    pause is paid outside the clock, then disable until the region ends.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def kernel_overhead_benchmark(
    num_moe_layers: int = 4,
    num_gpus: int = 16,
    num_experts: int = 32,
    num_steps: int = 30,
    tokens_per_gpu: int = 32_768,
    seed: int = 0,
    repeats: int = 5,
    tolerance: float = 0.05,
) -> dict[str, object]:
    """Kernel hosting cost and telemetry inertness on the identical run.

    Three passes per repeat, each on a freshly built seed-matched engine
    (schedulers are stateful, so a trace cannot be replayed on the same
    engine):

    * ``legacy`` -- a plain inline ``engine.step`` loop with no event
      machinery, telemetry disabled;
    * ``kernel`` -- the same run hosted on the event kernel, telemetry
      disabled;
    * ``enabled`` -- the kernel-hosted run under a full telemetry session
      (metrics registry + span tracer + decision timeline).

    Both gated passes run the engine's telemetry taps in disabled mode
    (one ``telemetry.current() is not None`` branch each), so the
    overhead gate bounds the kernel's hosting cost, not the taps' cost.
    ``legacy`` and ``kernel`` run INTERLEAVED, in alternating order, and
    ``overhead_pct`` is the best per-repeat PAIRED ratio -- adjacent
    passes share machine state, so the ratio is immune to the
    thermal/neighbour drift that plagues comparing two
    independently-taken minima on shared CI boxes.  ``within_tolerance``
    requires that best ratio to stay within ``tolerance``; simulated
    results must match exactly (the two paths run the same phase
    sequence, so any divergence is a kernel bug, not jitter).

    The ``enabled`` pass follows each pair.  Its cost against the inline
    loop is recorded (``enabled_overhead_pct``) but not gated; it must
    reproduce the disabled run's simulated results exactly (observation
    never changes a decision) and record trace and timeline events, so a
    silently dead tap cannot masquerade as zero overhead.
    """
    from repro import telemetry
    from repro.runtime.pipeline import build_engine
    from repro.training.loop import PipelineRunResult, simulate_pipeline

    model = MoEModelConfig(
        name=f"perf-kernel-{num_moe_layers}L",
        num_layers=2 * num_moe_layers,
        d_model=2048,
        d_ffn=8192,
        num_experts=num_experts,
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

    warmup = min(5, num_steps - 1)

    def one_pass(kernel: bool) -> tuple[float, float]:
        engine = build_engine(
            cluster_for(num_gpus), model,
            num_moe_layers=num_moe_layers, seed=seed,
        )
        with _gc_quiet():
            start = time.perf_counter()
            if kernel:
                result = simulate_pipeline(engine, trace, warmup=warmup)
            else:
                results = [
                    engine.step(trace.step(t), t)
                    for t in range(trace.num_steps)
                ]
                result = PipelineRunResult(
                    engine=engine.name,
                    results=tuple(results[warmup:]),
                    num_moe_layers=engine.num_moe_layers,
                    final_placement_signatures=engine.placement_signatures(),
                )
            elapsed = time.perf_counter() - start
        return elapsed, result.mean_step_time

    legacy_s = kernel_s = enabled_s = float("inf")
    legacy_sim = kernel_sim = enabled_sim = 0.0
    trace_events = timeline_events = 0
    ratios = []
    enabled_ratios = []
    with telemetry.suppressed():
        one_pass(False)  # untimed warm-up (lazy caches, code paths)
    for repeat in range(max(repeats, 1)):
        # Alternate which path runs first each repeat: a fixed order
        # turns monotonic machine drift (thermal throttling, noisy
        # neighbours) into phantom overhead on the always-later path.
        with telemetry.suppressed():
            if repeat % 2 == 0:
                legacy_i, legacy_sim = one_pass(False)
                kernel_i, kernel_sim = one_pass(True)
            else:
                kernel_i, kernel_sim = one_pass(True)
                legacy_i, legacy_sim = one_pass(False)
        with telemetry.session(reuse=False) as tel:
            enabled_i, enabled_sim = one_pass(True)
            trace_events = len(tel.tracer.events) if tel.tracer else 0
            timeline_events = len(tel.timeline)
        legacy_s = min(legacy_s, legacy_i)
        kernel_s = min(kernel_s, kernel_i)
        enabled_s = min(enabled_s, enabled_i)
        if legacy_i > 0:
            ratios.append(kernel_i / legacy_i)
            enabled_ratios.append(enabled_i / legacy_i)
    # Overhead is judged on PAIRED passes: adjacent runs see the same
    # machine state, so per-repeat ratios are drift-immune where the
    # ratio of two global minima (possibly from different thermal
    # windows) is not. Timer noise only ever adds time, so the best
    # pair is the cleanest estimate of the true ratio.
    best_ratio = min(ratios) if ratios else 1.0
    enabled_ratio = min(enabled_ratios) if enabled_ratios else 1.0

    def rate(seconds: float) -> float:
        return num_steps / seconds if seconds > 0 else 0.0

    return {
        "num_moe_layers": num_moe_layers,
        "num_gpus": num_gpus,
        "num_experts": num_experts,
        "num_steps": num_steps,
        "repeats": repeats,
        "legacy_seconds": legacy_s,
        "kernel_seconds": kernel_s,
        "enabled_seconds": enabled_s,
        "legacy_steps_per_sec": rate(legacy_s),
        "kernel_steps_per_sec": rate(kernel_s),
        "enabled_steps_per_sec": rate(enabled_s),
        "overhead_pct": 100.0 * (best_ratio - 1.0),
        "enabled_overhead_pct": 100.0 * (enabled_ratio - 1.0),
        "tolerance_pct": 100.0 * tolerance,
        "within_tolerance": best_ratio * (1.0 - tolerance) <= 1.0,
        "simulated_results_match": bool(np.isclose(
            legacy_sim, kernel_sim, rtol=1e-12, atol=0.0
        )),
        "telemetry_results_match": bool(np.isclose(
            kernel_sim, enabled_sim, rtol=1e-12, atol=0.0
        )),
        "enabled_trace_events": trace_events,
        "enabled_timeline_events": timeline_events,
    }


class _StubBookkeeping:
    """Constant-rate execute model exercising the serving event machinery.

    The full serving engine's per-batch cost is dominated by routing and
    cost-model evaluation, which would mask the event-machinery overhead
    this benchmark measures. The stub replaces ONLY the model half of the
    server (``execute = batch_tokens / rate``, the rate probed from the
    real cost model) and keeps the genuine hot-path machinery: the
    one-tenant admission queue, the rolling latency window, the columnar
    record bookkeeping at completion, the serving event source and the
    kernel.
    """

    def __init__(self, batching, window: int, tokens_per_s: float) -> None:
        from repro.serving.admission import PriorityAdmissionQueue
        from repro.serving.engine import single_stream_tenant
        from repro.serving.slo import LatencyWindow, SLOConfig

        self.queue = PriorityAdmissionQueue(
            batching, (single_stream_tenant(SLOConfig(latency_target=1.0)),)
        )
        self.window = LatencyWindow(window)
        self.rate = float(tokens_per_s)
        self._served: list = []
        self._count = 0
        self._columns = np.empty((3, 256), dtype=float)
        self._queue_col: np.ndarray | None = None

    def dispatch(self, batch, now: float, index: int) -> float:
        # The trigger-signal reads every real batch performs.
        self.window.p99()
        float(self.queue.queued_tokens)
        self._queue_col = now - self.queue.last_batch_arrivals
        return float(self.queue.last_batch_tokens.sum()) / self.rate

    def complete(self, batch, start: float, execute: float) -> None:
        queue_col = self._queue_col
        n = len(batch)
        capacity = self._columns.shape[1]
        if self._count + n > capacity:
            grown = np.empty(
                (3, max(2 * capacity, self._count + n)), dtype=float
            )
            grown[:, : self._count] = self._columns[:, : self._count]
            self._columns = grown
        sl = slice(self._count, self._count + n)
        self._columns[0, sl] = start
        self._columns[1, sl] = queue_col
        self._columns[2, sl] = execute
        self._count += n
        self._served.extend(batch)
        self.window.observe_batch(queue_col + execute)


def _probe_service_rate(
    num_experts: int, num_gpus: int, batch_tokens: int, seed: int
) -> float:
    """Tokens/second of modelled service time at the benchmark config,
    probed from the real profiled cost model on a balanced placement."""
    model = MoEModelConfig(
        name=f"perf-serving-{num_experts}e",
        num_layers=2,
        d_model=2048,
        d_ffn=8192,
        num_experts=num_experts,
    )
    topology = ClusterTopology(cluster_for(num_gpus))
    profile = Profiler(topology, noise=0.02, seed=seed).profile(model)
    cost_model = MoECostModel(profile, model)
    policy = PolicyMaker(cost_model)
    slots = auto_slots_per_gpu(num_experts, num_gpus)
    placement = Placement.balanced(num_experts, num_gpus, slots)
    assignment = np.full(
        (num_experts, num_gpus),
        max(1, batch_tokens // (num_experts * num_gpus)),
        dtype=np.int64,
    )
    batch_seconds = policy.estimate_step_time(assignment, placement)
    return float(assignment.sum()) / batch_seconds


def serving_events_benchmark(
    num_gpus: int = 16,
    num_experts: int = 64,
    num_requests: int = 4000,
    seed: int = 0,
    repeats: int = 3,
) -> dict[str, object]:
    """Serving event throughput of the serving event machinery.

    Replays a seeded stream through the shipped hot path (same-timestamp
    kernel drain, one ARRIVAL event per request, columnar numpy
    bookkeeping) with a constant-rate execute model probed from the real
    cost model at the 16-GPU / 64-expert configuration (:class:`_StubBookkeeping` explains
    why the full engine is not timed here); best-of-``repeats``.

    ``events_per_sec`` counts *logical* serving events -- one per
    arrival, dispatch and completion.
    """
    from repro.serving.admission import BatchingConfig
    from repro.serving.requests import RequestStream, RequestStreamConfig
    from repro.sim.kernel import SimKernel
    from repro.sim.sources import MultiTenantServingSource

    batch_tokens = 4096
    service_rate = _probe_service_rate(
        num_experts, num_gpus, batch_tokens, seed
    )
    # Offered load at 1.6x saturation: sustained deep queues keep
    # micro-batches at the token budget, which is the regime the
    # columnar bookkeeping targets (bursty gaps still idle the
    # server between bursts).
    stream = RequestStream(
        RequestStreamConfig(
            arrival="bursty",
            rate_rps=1.6 * service_rate / 256.0,
            num_requests=num_requests,
            mean_tokens=256,
            seed=seed,
        )
    ).generate()
    batching = BatchingConfig(
        max_batch_tokens=batch_tokens, max_queue_tokens=8 * batch_tokens
    )

    def one_pass() -> tuple[float, MultiTenantServingSource]:
        book = _StubBookkeeping(
            batching, window=64, tokens_per_s=service_rate
        )
        source = MultiTenantServingSource(
            stream, book.queue, book.dispatch, book.complete
        )
        kernel = SimKernel()
        start = time.perf_counter()
        source.prime(kernel, None)
        kernel.run()
        return time.perf_counter() - start, source

    # Allocation footprint (net live blocks per logical event), untimed.
    before = sys.getallocatedblocks()
    _, source = one_pass()
    blocks = sys.getallocatedblocks() - before
    num_batches = source.num_batches
    logical_events = len(stream) + 2 * num_batches

    seconds = float("inf")
    for _ in range(max(repeats, 1)):
        elapsed, _ = one_pass()
        seconds = min(seconds, elapsed)
    return {
        "num_gpus": num_gpus,
        "num_experts": num_experts,
        "num_requests": len(stream),
        "num_batches": num_batches,
        "logical_events": logical_events,
        "service_tokens_per_s": service_rate,
        "repeats": repeats,
        "seconds": seconds,
        "events_per_sec": logical_events / seconds if seconds > 0 else 0.0,
        "alloc_blocks_per_event": blocks / logical_events,
        "events_per_sec_floor": SERVING_EVENTS_PER_SEC_FLOOR,
    }


def kernel_events_benchmark(
    num_ticks: int = 4000,
    fan: int = 12,
    seed: int = 0,
    repeats: int = 3,
) -> dict[str, object]:
    """Pure kernel event throughput on a tie-heavy schedule.

    A deterministic schedule (``fan`` events per tick across cycling
    priorities, a fifth of the callbacks re-scheduling an extra event at
    the current time) isolates the kernel's own dispatch cost; the timed
    passes run untraced, best-of-``repeats``.
    """
    from repro.sim.kernel import SimKernel

    def prime(kernel: SimKernel) -> None:
        def noop() -> None:
            return None

        def renow() -> None:
            kernel.schedule_at(kernel.now, noop, 45, label="renow")

        for tick in range(num_ticks):
            for j in range(fan):
                callback = renow if j % 5 == 0 else noop
                kernel.schedule_at(
                    float(tick), callback, (j * 7) % 40, label=f"e{j}"
                )

    def one_pass() -> tuple[float, SimKernel]:
        kernel = SimKernel()
        prime(kernel)
        start = time.perf_counter()
        kernel.run()
        return time.perf_counter() - start, kernel

    seconds = float("inf")
    total_events = 0
    for _ in range(max(repeats, 1)):
        elapsed, kernel = one_pass()
        seconds = min(seconds, elapsed)
        total_events = kernel.processed_events
    return {
        "num_ticks": num_ticks,
        "fan": fan,
        "total_events": total_events,
        "repeats": repeats,
        "seconds": seconds,
        "events_per_sec": (
            total_events / seconds if seconds > 0 else 0.0
        ),
        "events_per_sec_floor": KERNEL_EVENTS_PER_SEC_FLOOR,
    }


def perf_suite(smoke: bool = False, seed: int = 0) -> dict[str, object]:
    """The full scheduling-overhead report.

    ``smoke`` shrinks every scenario to CI scale (seconds, not minutes)
    without changing the structure.  ``report["gates"]`` holds the named
    :data:`~repro.bench.gates.STEP_OVERHEAD` verdicts and ``ok`` their
    conjunction.  The planner speedup is recorded for the perf
    trajectory, not gated here: its ``>= 5x`` floor at 64 experts / 16
    GPUs lives in ``benchmarks/bench_planner_delta.py``.
    """
    if smoke:
        planner = planner_benchmark(
            num_experts=32, num_gpus=8, num_steps=12, seed=seed
        )
        kernel = kernel_overhead_benchmark(
            num_moe_layers=2, num_gpus=8, num_experts=16, num_steps=12,
            seed=seed,
        )
        serving_events = serving_events_benchmark(
            num_requests=800, seed=seed, repeats=2
        )
        kernel_events = kernel_events_benchmark(
            num_ticks=1000, seed=seed, repeats=2
        )
    else:
        planner = planner_benchmark(seed=seed)
        kernel = kernel_overhead_benchmark(seed=seed)
        serving_events = serving_events_benchmark(seed=seed)
        kernel_events = kernel_events_benchmark(seed=seed)
    return seal({
        "suite": "step_overhead",
        "smoke": smoke,
        "seed": seed,
        "planner": planner,
        "kernel": kernel,
        "serving_events": serving_events,
        "kernel_events": kernel_events,
        "telemetry": {"metrics": _memo_metrics_snapshot(planner["memo"])},
        "memo_hit_rate": float(planner["memo"]["hit_rate"]),
        "total_fallbacks": float(planner["fallbacks"]),
    })


def _memo_metrics_snapshot(memo_stats: dict) -> dict[str, object]:
    """Re-publish the planner pass's memo accounting through a
    standalone :class:`~repro.telemetry.registry.MetricsRegistry`.

    The timed benchmarks deliberately run with telemetry suppressed (so
    timings measure the subsystems, not the observer); the report still
    carries a registry-shaped snapshot so consumers — ``python -m repro
    perf`` included — read hit rates from the one telemetry schema
    instead of reaching into bench internals.
    """
    from repro.telemetry import MetricsRegistry

    registry = MetricsRegistry()
    for phase, item in sorted(dict(memo_stats["phases"]).items()):
        registry.counter("memo.hits", phase=phase).inc(int(item["hits"]))
        registry.counter("memo.misses", phase=phase).inc(
            int(item["misses"])
        )
    registry.gauge("memo.entries").set(float(memo_stats["entries"]))
    registry.gauge("memo.hit_rate").set(float(memo_stats["hit_rate"]))
    return registry.snapshot()


def write_report(report: dict[str, object], path: str | Path) -> Path:
    """Persist a perf report as machine-readable JSON."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path
