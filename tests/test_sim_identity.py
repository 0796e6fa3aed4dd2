"""Seeded identity pins for the kernel-hosted training, faults and serving runs.

Two kinds of check:

* production-path identities -- the kernel-hosted pipeline and faults runs
  against an inline ``engine.step`` loop, the kernel-hosted single-layer
  training run against an inline ``system.step`` loop, and a server built
  without tenants (one implicit tenant) against an explicit one-tenant
  ``TenantSpec`` server;
* golden pins -- the serving scenarios' reports (and one kernel trace)
  against ``tests/data/serving_golden.json``. The values were recorded
  while the pre-kernel clock loop and the per-request accounting still
  shipped and produced them too, so they carry that identity forward.
  Integers (batch counts, request order, rejections, placement actions,
  processed events, trace order) pin exactly; floats at ``rel=1e-9``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.base import build_context
from repro.baselines.flexmoe import FlexMoESystem
from repro.bench.harness import cluster_for
from repro.bench.serving import probe_batch_seconds
from repro.cluster.events import ElasticitySchedule
from repro.config import (
    FaultConfig,
    MoEModelConfig,
    SchedulerConfig,
    WorkloadConfig,
    auto_slots_per_gpu,
)
from repro.runtime.pipeline import build_engine
from repro.serving.admission import BatchingConfig
from repro.serving.baseline import (
    build_flexmoe_serving,
    build_multitenant_serving,
)
from repro.serving.engine import TopicRoutingModel
from repro.serving.requests import RequestStream, RequestStreamConfig, TenantSpec
from repro.serving.slo import SLOConfig, TenantClass
from repro.sim import Scenario
from repro.training.loop import (
    PipelineRunResult,
    TrainingRunResult,
    simulate_pipeline,
    simulate_training,
)
from repro.workload.synthetic import (
    DriftingRoutingGenerator,
    make_multilayer_trace,
)

from golden_compare import assert_matches_golden

GOLDEN_PATH = Path(__file__).parent / "data" / "serving_golden.json"

MODEL = MoEModelConfig(
    name="sim-identity",
    num_layers=4,
    d_model=1024,
    d_ffn=4096,
    num_experts=16,
)


def _trace(num_steps=8, num_gpus=8, seed=0):
    return make_multilayer_trace(
        2,
        MODEL.num_experts,
        num_gpus,
        WorkloadConfig(
            tokens_per_step=16_384 * num_gpus, num_steps=num_steps, seed=seed
        ),
    )


def _inline_pipeline(engine, trace):
    """The plain inline step loop: no kernel, no event sources."""
    return PipelineRunResult(
        engine=engine.name,
        results=tuple(
            engine.step(trace.step(t), t) for t in range(trace.num_steps)
        ),
        num_moe_layers=engine.num_moe_layers,
        final_placement_signatures=engine.placement_signatures(),
        event_log=getattr(engine, "event_log", ()),
    )


def _assert_pipeline_runs_identical(a, b):
    np.testing.assert_array_equal(a.step_times, b.step_times)
    assert a.final_placement_signatures == b.final_placement_signatures
    assert tuple(r.layer_actions for r in a.results) == tuple(
        r.layer_actions for r in b.results
    )
    np.testing.assert_array_equal(a.live_gpus_per_step, b.live_gpus_per_step)
    assert a.event_log == b.event_log


class TestRunPathIdentity:
    def test_pipeline_kernel_matches_legacy_loop(self):
        trace = _trace()

        def engine():
            return build_engine(cluster_for(8), MODEL, num_moe_layers=2, seed=0)

        _assert_pipeline_runs_identical(
            simulate_pipeline(engine(), trace), _inline_pipeline(engine(), trace)
        )

    def test_single_layer_training_kernel_matches_legacy_loop(self):
        """The kernel-hosted run against the plain inline step loop."""
        workload = WorkloadConfig(tokens_per_step=65_536, num_steps=6, seed=1)
        trace = DriftingRoutingGenerator(
            MODEL.num_experts, 8, workload
        ).generate()
        hosted = simulate_training(
            FlexMoESystem(build_context(cluster_for(8), MODEL, seed=1)), trace
        )
        system = FlexMoESystem(build_context(cluster_for(8), MODEL, seed=1))
        inline = TrainingRunResult(
            system=system.name,
            results=tuple(
                system.step(trace.step(t), t) for t in range(trace.num_steps)
            ),
        )
        np.testing.assert_array_equal(hosted.step_times, inline.step_times)
        assert hosted.mean_token_efficiency == inline.mean_token_efficiency
        assert hosted.diverted_fraction == inline.diverted_fraction


class TestFaultsPathIdentity:
    def test_elastic_kernel_matches_legacy_loop(self):
        """Failure + recovery + straggler via an ElasticitySource vs the
        inline loop's per-step polling: identical runs, identical event
        logs."""
        schedule = ElasticitySchedule.from_fault_config(
            FaultConfig(
                num_failures=1,
                failure_step=2,
                recovery_steps=3,
                num_stragglers=1,
                straggler_factor=0.5,
                straggler_step=1,
                seed=0,
            ),
            num_gpus=8,
        )
        trace = _trace(num_steps=8)
        slots = auto_slots_per_gpu(MODEL.num_experts, 8) + 2

        def engine():
            return build_engine(
                cluster_for(8),
                MODEL,
                num_moe_layers=2,
                scheduler_config=SchedulerConfig(
                    speed_aware_balance=True, min_replicas=2,
                    slots_per_gpu=slots,
                ),
                elasticity=schedule,
                seed=0,
            )

        hosted = simulate_pipeline(engine(), trace)
        _assert_pipeline_runs_identical(hosted, _inline_pipeline(engine(), trace))
        # The elasticity genuinely fired (this is not a vacuous identity).
        assert len(hosted.event_log) == len(schedule)


def _serving_setup(seed):
    """The shared seeded serving scenario: 2 MoE layers x 16 experts on
    8 GPUs, a bursty 100-request stream at 90% of balanced capacity."""
    num_layers, num_gpus, num_experts = 2, 8, 16
    base = probe_batch_seconds(num_layers, num_gpus, num_experts, 4096, seed=seed)
    rate = 0.9 * (4096 / base) / 512
    return dict(
        base=base,
        slo=SLOConfig(
            latency_target=8 * base,
            trigger_p99=3 * base,
            queue_limit_tokens=8192.0,
        ),
        batching=BatchingConfig(max_batch_tokens=4096, max_queue_tokens=65_536),
        rate=rate,
        stream=RequestStreamConfig(
            arrival="bursty",
            rate_rps=rate,
            num_requests=100,
            mean_tokens=512,
            max_tokens=4096,
            num_topics=4,
            seed=seed,
        ),
        cluster=cluster_for(num_gpus),
        model=MoEModelConfig(
            name="sim-identity-serving",
            num_layers=2 * num_layers,
            d_model=1024,
            d_ffn=8192,
            num_experts=num_experts,
        ),
        num_moe_layers=num_layers,
        routing=TopicRoutingModel(
            num_layers, num_experts, 4, skew=2.0, seed=seed
        ),
    )


def _build_servers(seed=0, with_faults=False):
    setup = _serving_setup(seed)
    requests = RequestStream(setup["stream"]).generate()
    elasticity = (
        ElasticitySchedule.from_fault_config(
            FaultConfig(
                num_failures=1, failure_step=4, recovery_steps=6, seed=seed
            ),
            setup["cluster"].num_gpus,
        )
        if with_faults
        else None
    )
    args = (
        setup["cluster"], setup["model"], requests, setup["batching"],
        setup["slo"],
    )
    kwargs = dict(
        num_moe_layers=setup["num_moe_layers"],
        routing=setup["routing"],
        elasticity=elasticity,
        skew=2.0,
        seed=seed,
    )
    return (
        lambda: build_flexmoe_serving(*args, **kwargs),
        lambda: build_flexmoe_serving(*args, **kwargs, dynamic=False),
    )


def _multitenant_fixture(seed=0, num_tenants=1):
    """One-or-two-tenant servers sharing the scenario of _build_servers."""
    setup = _serving_setup(seed)
    stream, slo, base = setup["stream"], setup["slo"], setup["base"]
    tenants = [
        TenantSpec(
            name="only",
            stream=stream,
            tenant_class=TenantClass("interactive", slo, priority=10),
        )
    ]
    if num_tenants == 2:
        tenants.append(
            TenantSpec(
                name="bulk",
                stream=stream.replace(
                    arrival="poisson", rate_rps=setup["rate"] / 4,
                    num_requests=40, seed=seed + 1,
                ),
                tenant_class=TenantClass(
                    "batch", SLOConfig(latency_target=32 * base)
                ),
                quota_tokens=2048,
            )
        )
    return dict(
        cluster=setup["cluster"],
        model=setup["model"],
        tenants=tuple(tenants),
        batching=setup["batching"],
        num_moe_layers=setup["num_moe_layers"],
        routing=setup["routing"],
        skew=2.0,
        seed=seed,
    ), stream, slo


def _assert_reports_identical(a, b):
    assert a.records == b.records
    assert a.rejected == b.rejected
    assert a.num_batches == b.num_batches
    assert a.sim_duration == b.sim_duration
    assert a.placement_actions == b.placement_actions
    assert a.summary() == b.summary()


class TestMultiTenantIdentity:
    """A server built without tenants is the one-tenant case of the
    multi-tenant server."""

    def test_single_tenant_reduction_matches_single_stream_path(self):
        """An explicit one-tenant TenantSpec run (priority admission,
        preemption armed but unreachable) is report-identical to the
        dynamic server built without tenants (one implicit tenant) on
        the same seeded scenario."""
        kwargs, stream, slo = _multitenant_fixture(seed=0)
        mt_report = build_multitenant_serving(**kwargs).run()
        plain_report = build_flexmoe_serving(
            kwargs["cluster"], kwargs["model"],
            RequestStream(stream).generate(), kwargs["batching"], slo,
            num_moe_layers=kwargs["num_moe_layers"],
            routing=kwargs["routing"], skew=2.0, seed=0,
        ).run()
        _assert_reports_identical(mt_report, plain_report)
        assert mt_report.num_batches > 0
        # The reduction still carries its tenancy section.
        assert mt_report.tenancy is not None
        assert plain_report.tenancy is None

    def test_single_tenant_fifo_policy_also_reduces(self):
        kwargs, stream, slo = _multitenant_fixture(seed=1)
        mt_report = build_multitenant_serving(
            **kwargs, admission_policy="fifo", preemption=False
        ).run()
        plain_report = build_flexmoe_serving(
            kwargs["cluster"], kwargs["model"],
            RequestStream(stream).generate(), kwargs["batching"], slo,
            num_moe_layers=kwargs["num_moe_layers"],
            routing=kwargs["routing"], skew=2.0, seed=1,
        ).run()
        _assert_reports_identical(mt_report, plain_report)


# ---------------------------------------------------------------------------
# Golden pins
# ---------------------------------------------------------------------------
def _report_values(report):
    values = {
        "num_batches": report.num_batches,
        "placement_actions": report.placement_actions,
        "record_order": [r.request.index for r in report.records],
        "rejected": [r.index for r in report.rejected],
        "starts": [r.start for r in report.records],
        "queue_times": [r.queue_time for r in report.records],
        "execute_times": [r.execute_time for r in report.records],
        "sim_duration": report.sim_duration,
        "summary": report.summary(),
    }
    if report.tenancy is not None:
        info = report.tenancy
        values["tenancy"] = {
            "preemptions": info.preemptions,
            "preempted_requests": info.preempted_requests,
            "wasted_seconds": info.wasted_seconds,
            "shed_requests": info.shed_requests,
            "shed_by_tenant": list(info.shed_by_tenant),
        }
        values["per_class"] = report.per_class_summary()
    return values


def _drain_trace_values():
    """Eager per-request arrivals on a recorded kernel: completions,
    admissions and dispatches tie at one instant."""
    build_flex, _ = _build_servers(seed=2)
    run = build_flex().event_source()
    kernel = Scenario(name="drain-identity", sources=(run.source,)).run(
        record_trace=True
    )
    return {
        "processed_events": kernel.processed_events,
        "trace_order": [[priority, seq] for _, priority, seq, _ in kernel.trace],
        "trace_times": [entry[0] for entry in kernel.trace],
        "report": _report_values(run.report()),
    }


GOLDEN_SCENARIOS = {
    "dynamic_seed0": lambda: _report_values(_build_servers(seed=0)[0]().run()),
    "static_seed1": lambda: _report_values(_build_servers(seed=1)[1]().run()),
    "faults_seed0": lambda: _report_values(
        _build_servers(seed=0, with_faults=True)[0]().run()
    ),
    "two_tenant_seed0": lambda: _report_values(
        build_multitenant_serving(
            **_multitenant_fixture(seed=0, num_tenants=2)[0]
        ).run()
    ),
    "drain_trace_seed2": _drain_trace_values,
}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


class TestServingGolden:
    def _check(self, golden, name):
        observed = GOLDEN_SCENARIOS[name]()
        assert_matches_golden(observed, golden[name], name)
        return observed

    def test_dynamic_server_matches_golden(self, golden):
        observed = self._check(golden, "dynamic_seed0")
        assert observed["num_batches"] > 0
        assert observed["placement_actions"] > 0

    def test_static_server_matches_golden(self, golden):
        self._check(golden, "static_seed1")

    def test_serving_with_faults_matches_golden(self, golden):
        self._check(golden, "faults_seed0")

    def test_two_tenant_mix_matches_golden(self, golden):
        observed = self._check(golden, "two_tenant_seed0")
        assert observed["num_batches"] > 0

    def test_drain_trace_matches_golden_on_serving_scenario(self, golden):
        observed = self._check(golden, "drain_trace_seed2")
        # Ties genuinely occurred (completion + admissions + dispatch at
        # one instant), so the pinned order is not vacuous.
        times = observed["trace_times"]
        assert len(times) != len(set(times))
