"""Run one workload untraced (end-to-end metrics) or traced (per layer).

A run is the workload's sub-runs, each set up and measured in turn.
:func:`run_untraced` reports the end-to-end metrics with tracing off:
the median sub-run's throughput (each sub-run at its fastest repeat)
and simulated result, the median set-up time, and the process's peak
memory.  Each sub-run's throughput and set-up time are scaled to the
host's usual pace over that sub-run (:mod:`perfbench.pace`).
:func:`run_traced` makes one pass untraced (the overhead baseline) and
one traced, and reports the per-layer metrics: each layer's self
seconds, the counters, and the trace's coverage and cost.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time

from perfbench import pace
from perfbench.spans import MEASURE_SPAN, NullTracer, Tracer

#: End-to-end metric -> unit (BENCHMARK.json's ``end_to_end``).
END_TO_END = {
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_time_s": "s",
}

#: Span name -> the per-layer self-time metric it adds to.  The
#: workloads' own root span (:data:`MEASURE_SPAN`) is not a layer: its
#: self time is left in ``trace.unattributed_s``.
SPAN_METRICS = {
    "workload.generate": "workload.generate_s",
    "cluster.build": "cluster.build_s",
    "kernel.run": "kernel.self_s",
    "pipeline.schedule": "pipeline.self_s",
    "pipeline.begin_step": "pipeline.self_s",
    "pipeline.execute": "pipeline.self_s",
    "pipeline.commit": "pipeline.commit_s",
    "scheduler.on_step": "scheduler.on_step_s",
    "policy.make_plan": "policy.make_plan_s",
    "migration.plan": "migration.plan_s",
    "delta.rebase": "delta.rebase_s",
    "router.route": "router.route_s",
    "executor.execute": "executor.execute_s",
    "admission.offer": "admission.offer_s",
    "admission.next_batch": "admission.next_batch_s",
    "serving.event_source": "serving.self_s",
    "serving.dispatch": "serving.self_s",
    "serving.complete": "serving.self_s",
    "serving.report": "serving.self_s",
    "slo.observe": "slo.observe_s",
}

#: Span name -> the per-layer call-count metric it feeds.
SPAN_COUNTS = {
    "router.route": "router.calls",
    "policy.make_plan": "policy.calls",
}

#: Counters the workloads report -> unit.
COUNTER_UNITS = {
    "kernel.events": "count",
    "pipeline.actions_emitted": "count",
    "pipeline.actions_committed": "count",
    "pipeline.actions_dropped": "count",
    "scheduler.trigger_rate": "ratio",
    "policy.beneficial_rate": "ratio",
    "migration.moves": "count",
    "delta.rebases": "count",
    "delta.evaluations": "count",
    "delta.fallbacks": "count",
    "memo.hit_rate": "ratio",
    "router.locality": "ratio",
    "executor.sim_a2a_s": "s",
    "executor.sim_compute_s": "s",
    "executor.sim_sync_s": "s",
    "admission.rejected": "count",
    "admission.shed": "count",
    "serving.preemptions": "count",
    "serving.wasted_frac": "ratio",
    "slo.attainment": "ratio",
    "slo.p99_s": "s",
}

#: Every per-layer metric -> unit (BENCHMARK.json's ``per_layer``).
PER_LAYER = {
    **{metric: "s" for metric in SPAN_METRICS.values()},
    **{metric: "count" for metric in SPAN_COUNTS.values()},
    **COUNTER_UNITS,
    "trace.spans": "count",
    "trace.attributed_fraction": "ratio",
    "trace.unattributed_s": "s",
    "trace.overhead_pct": "%",
    "host.slowdown": "ratio",
}


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tagged(values: dict[str, float], units: dict[str, str]) -> dict:
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in units.items()
    }


def _sub_runs(workload, tracer, repeats: int = 1):
    """Set up every sub-run and measure it ``repeats`` times in a row.

    Returns every set-up time, one outcome per sub-run (at its highest
    rate), and each sub-run's pace: the host slowdown the workload felt
    over its set-up + measure cycle, read from the reference kernels
    timed just before and just after it.  The host's pace drifts within
    a run, so each cycle is paced by its own neighbours.  Each sub-run's
    state is dropped before the next is built, so peak memory is one
    sub-run's, not the sum.
    """
    setup_times: list[float] = []
    outcomes: list = []
    paces: list[float] = []
    kernels = workload.host_sensitivity
    before = pace.reference_times(kernels)
    for index in range(workload.sub_runs):
        gc.collect()
        tracer.run = index
        start = time.perf_counter()
        state = workload.setup(tracer, index)
        setup_times.append(time.perf_counter() - start)
        first = None
        for _ in range(repeats):
            gc.collect()
            outcome = workload.measure(state, tracer)
            if first is None:
                first = outcome
                continue
            # The same sub-run must reproduce every simulated result.
            first.failed += outcome.failed + int(outcome.sim != first.sim)
            first.attempted += outcome.attempted
            first.rate = max(first.rate, outcome.rate)
        del state
        outcomes.append(first)
        after = pace.reference_times(kernels)
        paces.append(pace.slowdown([before, after], kernels))
        before = after
    return setup_times, outcomes, paces


def _median_sim(outcomes) -> dict[str, float]:
    return {
        name: statistics.median(o.sim[name] for o in outcomes)
        for name in outcomes[0].sim
    }


def run_untraced(workload) -> dict:
    """End-to-end metrics of one run with tracing off."""
    setup_times, outcomes, paces = _sub_runs(
        workload, NullTracer(), workload.repeats
    )
    sim = _median_sim(outcomes)
    values = {
        "throughput_per_s": statistics.median(
            o.rate * p for o, p in zip(outcomes, paces)
        ),
        "setup_s": statistics.median(s / p for s, p in zip(setup_times, paces)),
        "peak_rss_mb": peak_rss_mb(),
        **sim,
    }
    return {
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": _tagged(values, END_TO_END),
        "sim": sim,
    }


def run_traced(workload) -> tuple[dict, Tracer]:
    """Per-layer metrics: an untraced baseline pass, then a traced one."""
    _, baseline, _ = _sub_runs(workload, NullTracer())
    tracer = Tracer()
    setup_times, outcomes, paces = _sub_runs(workload, tracer)
    # The timed regions exclude the workloads' own output checks, so the
    # wall the spans must cover is set-up plus timed region per sub-run.
    wall = sum(setup_times) + sum(o.measure_s for o in outcomes)

    values = {metric: 0.0 for metric in PER_LAYER}
    for name, seconds in tracer.self_times().items():
        if name != MEASURE_SPAN:
            values[SPAN_METRICS[name]] += seconds
    for name, metric in SPAN_COUNTS.items():
        values[metric] = float(tracer.count(name))
    for name, unit in COUNTER_UNITS.items():
        per_run = [o.counters.get(name, 0.0) for o in outcomes]
        # Counts and seconds add up across sub-runs; ratios and latency
        # percentiles do not, so those report the median sub-run.
        if unit == "ratio" or name == "slo.p99_s":
            values[name] = statistics.median(per_run)
        else:
            values[name] = sum(per_run)
    attributed = sum(values[m] for m in set(SPAN_METRICS.values()))
    values["trace.spans"] = float(len(tracer.spans))
    values["trace.attributed_fraction"] = attributed / wall
    values["trace.unattributed_s"] = max(wall - attributed, 0.0)
    values["trace.overhead_pct"] = 100.0 * (
        sum(o.measure_s for o in outcomes) / sum(o.measure_s for o in baseline)
        - 1.0
    )
    values["host.slowdown"] = statistics.median(paces)
    sim = _median_sim(outcomes)
    # Tracing must not change a single simulated result.
    mismatched = sum(a.sim != b.sim for a, b in zip(outcomes, baseline))
    return (
        {
            "attempted": sum(o.attempted for o in baseline + outcomes),
            "failed": sum(o.failed for o in baseline + outcomes) + mismatched,
            "metrics": _tagged(values, PER_LAYER),
            "sim": sim,
        },
        tracer,
    )
