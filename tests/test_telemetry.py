"""The unified telemetry layer: registry, sessions, taps, timeline.

Covers the three contracts docs/observability.md promises:

* instruments are deterministic and get-or-create by (name, labels);
* tap points are inert -- no active session means no recording and no
  behavioural difference (decision identity with telemetry on vs off);
* the kernel's legacy tuple trace and the Chrome mirror share one sink,
  so they can never drift.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.cluster.profiler import Profiler
from repro.cluster.topology import ClusterTopology
from repro.config import ClusterConfig, MoEModelConfig
from repro.core.cost_model import MemoizedStepCost, MoECostModel
from repro.core.placement import Placement
from repro.exceptions import ConfigurationError
from repro.serving.admission import BatchingConfig, PriorityAdmissionQueue
from repro.serving.engine import single_stream_tenant
from repro.serving.requests import Request
from repro.serving.slo import LatencyWindow, SLOConfig
from repro.telemetry import (
    DecisionTimeline,
    MetricsRegistry,
    SpanTracer,
    metric_key,
)

MODEL = MoEModelConfig("tel", num_layers=2, d_model=256, d_ffn=1024, num_experts=8)
CLUSTER = ClusterConfig(num_nodes=1, gpus_per_node=4)


@pytest.fixture
def cost_model() -> MoECostModel:
    topology = ClusterTopology(CLUSTER)
    profile = Profiler(topology, noise=0.0, seed=0).profile(MODEL)
    return MoECostModel(profile, MODEL)


# ----------------------------------------------------------------------
# Registry instruments
# ----------------------------------------------------------------------
def test_metric_key_renders_sorted_labels():
    assert metric_key("memo.hits") == "memo.hits"
    assert (
        metric_key("memo.hits", phase="policy") == "memo.hits{phase=policy}"
    )
    # Label order never matters.
    assert metric_key("a", b=1, a=2) == metric_key("a", a=2, b=1)


def test_counter_get_or_create_and_monotonicity():
    registry = MetricsRegistry()
    counter = registry.counter("events", kind="fail")
    counter.inc()
    registry.counter("events", kind="fail").inc(2.0)
    assert registry.counter("events", kind="fail") is counter
    assert registry.snapshot()["counters"]["events{kind=fail}"] == 3.0
    with pytest.raises(ConfigurationError):
        counter.inc(-1.0)


def test_gauge_last_write_wins():
    registry = MetricsRegistry()
    registry.gauge("pool.live").set(8)
    registry.gauge("pool.live").set(6)
    assert registry.snapshot()["gauges"]["pool.live"] == 6.0


def test_histogram_buckets_and_overflow():
    registry = MetricsRegistry()
    hist = registry.histogram("latency", buckets=(0.1, 0.5, 1.0))
    for value in (0.05, 0.3, 0.3, 0.9, 5.0):
        hist.observe(value)
    assert hist.counts == [1, 2, 1, 1]  # last bucket = overflow
    assert hist.count == 5
    assert hist.total == pytest.approx(6.55)
    with pytest.raises(ConfigurationError):
        registry.histogram("bad", buckets=(1.0, 1.0))
    with pytest.raises(ConfigurationError):
        registry.histogram("empty", buckets=())


def test_snapshot_is_sorted_and_complete():
    registry = MetricsRegistry()
    registry.counter("b").inc()
    registry.counter("a", x=1).inc(2)
    registry.gauge("g").set(1.5)
    registry.histogram("h", buckets=(1.0,)).observe(0.5)
    snap = registry.snapshot()
    assert list(snap) == ["counters", "gauges", "histograms"]
    assert list(snap["counters"]) == sorted(snap["counters"])
    assert snap["counters"] == {"a{x=1}": 2.0, "b": 1.0}
    assert snap["gauges"] == {"g": 1.5}
    assert snap["histograms"]["h"] == {
        "buckets": [1.0],
        "counts": [1, 0],
        "count": 1,
        "sum": 0.5,
    }
    assert len(registry) == 4
    assert "missing" not in {**snap["counters"], **snap["gauges"]}


# ----------------------------------------------------------------------
# Session scoping
# ----------------------------------------------------------------------
def test_no_session_by_default():
    assert telemetry.current() is None


def test_session_activates_and_restores():
    with telemetry.session() as tel:
        assert telemetry.current() is tel
        assert tel.tracer is not None
    assert telemetry.current() is None


def test_nested_session_reuses_by_default():
    with telemetry.session() as outer:
        with telemetry.session() as inner:
            assert inner is outer
        # Inner exit must not deactivate the outer scope.
        assert telemetry.current() is outer


def test_fresh_session_on_reuse_false():
    with telemetry.session() as outer:
        with telemetry.session(reuse=False) as inner:
            assert inner is not outer
            assert telemetry.current() is inner
        assert telemetry.current() is outer


def test_suppressed_disables_inside_session():
    with telemetry.session():
        with telemetry.suppressed():
            assert telemetry.current() is None
        assert telemetry.current() is not None


def test_session_without_tracing():
    with telemetry.session(trace=False) as tel:
        assert tel.tracer is None
        # Decisions still land on the timeline without a tracer.
        tel.decision(1.0, "fail", "gpu[0]")
        assert len(tel.timeline) == 1


# ----------------------------------------------------------------------
# Decision timeline
# ----------------------------------------------------------------------
def test_timeline_record_query_and_export():
    timeline = DecisionTimeline()
    timeline.record(0.5, "trigger", "layer[0]", step=3)
    timeline.record(1.0, "migrate", "layer[0]", expert_a=1)
    timeline.record(2.0, "fail", "gpu[2]")
    assert timeline.kinds() == {"trigger": 1, "migrate": 1, "fail": 1}
    assert [e.kind for e in timeline.between(0.75, 1.5)] == ["migrate"]
    assert [e.time for e in timeline.of_kind("trigger", "fail")] == [0.5, 2.0]
    first = timeline.to_dicts()[0]
    assert first == {
        "time": 0.5,
        "kind": "trigger",
        "subject": "layer[0]",
        "details": {"step": 3},
    }


# ----------------------------------------------------------------------
# The kernel's one trace path: every processed event on its track
# ----------------------------------------------------------------------
def test_kernel_sink_feeds_tuples_and_track_identically():
    from repro.sim.kernel import SimKernel

    tracer = SpanTracer()
    track = tracer.new_track("k")
    kernel = SimKernel(tracer=track)
    assert kernel.tracer is track
    kernel.schedule_at(0.25, lambda: None, 40, label="step[0]")
    kernel.run()
    slices = [e for e in tracer.events if e["ph"] == "X"]
    assert len(slices) == 1
    assert slices[0]["name"] == "step[0]"
    assert slices[0]["ts"] == pytest.approx(0.25 * 1e6)
    assert slices[0]["tid"] == 40
    assert slices[0]["args"] == {"seq": 0}


def test_kernel_trace_tuples_unchanged_by_tracer():
    from repro.sim.kernel import Priority, SimKernel

    def run(tracer):
        kernel = SimKernel(tracer=tracer)
        for t, label in ((0.2, "b"), (0.1, "a"), (0.3, "c")):
            kernel.schedule_at(t, lambda: None, Priority.STEP, label=label)
        kernel.run()
        return kernel.processed_events, kernel.now

    bare = run(None)
    tracer = SpanTracer()
    assert run(tracer.new_track("kernel")) == bare
    log = [
        (e["ts"] / 1e6, e["tid"], e["args"]["seq"], e["name"])
        for e in tracer.events
        if e["ph"] == "X"
    ]
    assert log == [
        (0.1, Priority.STEP, 1, "a"),
        (0.2, Priority.STEP, 0, "b"),
        (0.3, Priority.STEP, 2, "c"),
    ]


# ----------------------------------------------------------------------
# Tap points
# ----------------------------------------------------------------------
def test_memo_taps_count_per_phase(cost_model, rng):
    memo = MemoizedStepCost(cost_model)
    assignment = rng.integers(0, 1000, (8, 4))
    placement = Placement.balanced(8, 4, 2)
    with telemetry.session() as tel:
        memo.step_time(assignment, placement, phase="policy")
        memo.step_time(assignment, placement, phase="migration")
        counters = tel.registry.snapshot()["counters"]
    assert counters["memo.misses{phase=policy}"] == 1.0
    assert counters["memo.hits{phase=migration}"] == 1.0


def _request(index: int, tokens: int = 100) -> Request:
    return Request(index=index, arrival=0.0, tokens=tokens, topic=0)


def _single_stream_queue(config: BatchingConfig) -> PriorityAdmissionQueue:
    return PriorityAdmissionQueue(
        config, (single_stream_tenant(SLOConfig(latency_target=1.0)),)
    )


def test_admission_taps_count_admit_and_reject():
    queue = _single_stream_queue(
        BatchingConfig(max_batch_tokens=256, max_queue_tokens=256)
    )
    with telemetry.session() as tel:
        assert queue.offer(_request(0, 200))
        assert not queue.offer(_request(1, 100))  # 300 > 256: rejected
        counters = tel.registry.snapshot()["counters"]
    # Admission counters are always per tenant; a single stream is
    # tenant 0.
    assert counters["admission.admitted{tenant=0}"] == 1.0
    assert counters["admission.rejected{tenant=0}"] == 1.0
    assert "admission.admitted" not in counters


def test_counter_total_sums_every_label_set():
    registry = MetricsRegistry()
    registry.counter("admission.admitted", tenant=0).inc(3)
    registry.counter("admission.admitted", tenant=1).inc(2)
    registry.counter("admission.rejected", tenant=1).inc()
    assert registry.counter_total("admission.admitted") == 5.0
    assert registry.counter_total("admission.rejected") == 1.0
    assert registry.counter_total("admission.shed") == 0.0


def test_admission_counters_account_every_offered_request_composed():
    """A tenant-less composed scenario (it drains: every request is
    offered): admitted + rejected counters equal the requests offered,
    and every admitted request is served."""
    from repro.sim.composed import (
        ComposedScenarioConfig,
        build_composed_scenario,
    )

    config = ComposedScenarioConfig(seed=0).smoke()
    handles = build_composed_scenario(config)
    with telemetry.session(reuse=False) as tel:
        handles.scenario.run()
        report = handles.serving_run.report()
        registry = tel.registry
    admitted = registry.counter_total("admission.admitted")
    rejected = registry.counter_total("admission.rejected")
    assert admitted + rejected == config.num_requests
    assert admitted == len(report.records) > 0
    assert rejected == len(report.rejected)
    assert registry.counter_total("admission.shed") == 0.0


def test_admission_counters_account_every_offered_request_two_tenants():
    """A two-tenant server under overload with shedding: admitted +
    rejected counters equal the requests offered; shed requests were
    admitted first, so admitted - shed are exactly the served ones."""
    from repro.bench.harness import cluster_for
    from repro.serving.baseline import build_multitenant_serving
    from repro.serving.requests import RequestStreamConfig, TenantSpec
    from repro.serving.slo import TenantClass

    def stream(seed):
        return RequestStreamConfig(
            arrival="bursty", rate_rps=1e6, num_requests=40,
            mean_tokens=128, max_tokens=512, seed=seed,
        )

    tenants = (
        TenantSpec("chat", stream(0), TenantClass(
            "interactive", SLOConfig(latency_target=0.05), priority=10
        )),
        TenantSpec("bulk", stream(1), TenantClass(
            "batch", SLOConfig(latency_target=1.0)
        )),
    )
    server = build_multitenant_serving(
        cluster_for(4),
        MoEModelConfig(
            name="acct", num_layers=2, d_model=256, d_ffn=1024,
            num_experts=8,
        ),
        tenants,
        BatchingConfig(max_batch_tokens=512, max_queue_tokens=1024),
        num_moe_layers=1,
        seed=0,
        shed_low_priority=True,
    )
    with telemetry.session(reuse=False) as tel:
        report = server.run()
        registry = tel.registry
    admitted = registry.counter_total("admission.admitted")
    rejected = registry.counter_total("admission.rejected")
    shed = registry.counter_total("admission.shed")
    assert admitted + rejected == 80
    assert rejected > 0 and shed > 0  # the overload genuinely bit
    assert admitted - shed == len(report.records)
    assert rejected + shed == len(report.rejected)


def test_latency_window_publish():
    window = LatencyWindow(8)
    window.observe_batch(np.array([0.1, 0.2, 0.3]))
    registry = MetricsRegistry()
    window.publish(registry, engine="X")
    gauges = registry.snapshot()["gauges"]
    assert gauges["serving.window.size{engine=X}"] == 3.0
    assert gauges["serving.window.p99_s{engine=X}"] == pytest.approx(
        window.p99()
    )


def test_taps_are_silent_without_session():
    # No session: the same calls must neither record nor raise.
    queue = _single_stream_queue(BatchingConfig(max_batch_tokens=256))
    assert queue.offer(_request(0))
    assert telemetry.current() is None


# ----------------------------------------------------------------------
# Observation is inert: identical results with telemetry on vs off
# ----------------------------------------------------------------------
def test_pipeline_results_identical_with_and_without_telemetry():
    from repro.bench.harness import pipeline_run

    kwargs = dict(
        num_moe_layers=2, num_gpus=8, num_experts=8, num_steps=6,
        tokens_per_gpu=2048, d_model=256, d_ffn=1024, warmup=1, seed=0,
    )
    with telemetry.suppressed():
        baseline = pipeline_run(**kwargs)
    with telemetry.session(reuse=False) as tel:
        observed = pipeline_run(**kwargs)
        assert len(tel.tracer.events) > 0
        assert "scheduler.triggers" in tel.registry.snapshot()["counters"]
    assert observed.mean_step_time == baseline.mean_step_time
    assert np.array_equal(observed.step_times, baseline.step_times)
