"""Serving-latency harness: ``python -m repro serve``.

Runs the identical SLO-aware request stream through two servers -- the
dynamic FlexMoE server and the frozen
:class:`~repro.serving.baseline.StaticServing` baseline -- on
seed-matched substrates, and reports p50/p95/p99 latency and goodput
under the SLO (``BENCH_serving_latency.json``).

Calibration makes the scenario meaningful at any model/cluster shape:
a probe run measures the modelled duration of one balanced, full
micro-batch, and the stream's arrival rate is set to ``load`` times the
resulting token capacity. At ``load`` near 1 with bursty arrivals and
skewed expert popularity, the static server's imbalance-inflated batch
times push it past saturation while the dynamic server rebalances and
keeps queues bounded -- the serving analogue of the paper's Figure 5
gap. The SLO itself is ``slo_batches`` balanced batch times, i.e. "a
request may wait a few batches, not a meltdown". :func:`calibrate_serving`
is that calibration, and every single-stream scenario starts from it:
``serve`` here, the composed scenario (:mod:`repro.sim.composed`) and the
churn scenario (:mod:`repro.sim.churn`).

The report's named gates (:data:`repro.bench.gates.SERVING_LATENCY`)
require the dynamic server to beat the static one on BOTH p99 latency
and goodput; ``ok`` is their conjunction.

:func:`multitenant_run` (``python -m repro serve --multi-tenant``,
``BENCH_multitenant.json``) is the multi-tenant variant: an interactive
tenant and two batch tenants contend for one expert pool, and FlexMoE
placement with priority admission + preemption is compared against
static placement with a single global FIFO on interactive-class SLO
attainment and Jain fairness. Its tenants come from :func:`tenant_mix`,
which the churn benchmark's graceful-degradation pair shares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench.gates import seal
from repro.bench.harness import cluster_for
from repro.cluster.events import ElasticitySchedule
from repro.config import FaultConfig, MoEModelConfig
from repro.core.trigger import NeverTrigger
from repro.exceptions import ConfigurationError
from repro.runtime.pipeline import build_engine
from repro.serving.admission import BatchingConfig
from repro.serving.baseline import (
    build_flexmoe_serving,
    build_multitenant_serving,
    serving_scheduler_config,
)
from repro.serving.engine import TopicRoutingModel
from repro.serving.requests import (
    Request,
    RequestStream,
    RequestStreamConfig,
    TenantSpec,
    merge_tenant_requests,
)
from repro.serving.slo import ServingReport, SLOConfig, TenantClass

#: Default report location (repo root when run from a checkout).
REPORT_FILENAME = "BENCH_serving_latency.json"

#: Default multi-tenant report location.
MULTITENANT_REPORT_FILENAME = "BENCH_multitenant.json"

#: :func:`serving_run`'s backpressure bound, in units of
#: ``max_batch_tokens``.
QUEUE_FACTOR = 16.0


def _serving_model(num_moe_layers: int, num_experts: int) -> MoEModelConfig:
    # Expert-heavy FFNs (8x d_model): at inference the dense attention
    # share is imbalance-independent, so the expert share is what dynamic
    # placement can actually win on -- as in the paper's models, the
    # experts carry most of the FLOPs.
    return MoEModelConfig(
        name=f"serving-{num_moe_layers}L-{num_experts}e",
        num_layers=2 * num_moe_layers,
        d_model=1024,
        d_ffn=8192,
        num_experts=num_experts,
    )


def probe_batch_seconds(
    num_moe_layers: int,
    num_gpus: int,
    num_experts: int,
    batch_tokens: int,
    seed: int = 0,
) -> float:
    """Modelled seconds of one BALANCED full micro-batch: the mean of
    three steps.

    Uses a throwaway never-scheduling engine on the same substrate seed:
    uniform expert load over the balanced initial placement is the
    best-case batch, so rates and SLOs derived from it are optimistic --
    any imbalance only makes the servers slower than the calibration
    assumed, never faster. The first step is an untimed warm-up: it pays
    the one-time communicator-group creations that a long-running server
    amortizes away.
    """
    if batch_tokens < 1:
        raise ConfigurationError("batch_tokens must be >= 1")
    cluster = cluster_for(num_gpus)
    model = _serving_model(num_moe_layers, num_experts)
    engine = build_engine(
        cluster,
        model,
        num_moe_layers=num_moe_layers,
        scheduler_config=serving_scheduler_config(
            model, cluster, elasticity=None, migrate=False
        ),
        seed=seed,
        trigger_factory=NeverTrigger,
        inference=True,
    )
    per_gpu, remainder = divmod(batch_tokens, num_gpus)
    gpu_tokens = per_gpu + (np.arange(num_gpus) < remainder)
    per_expert, leftover = np.divmod(gpu_tokens, num_experts)
    assignment = np.tile(per_expert, (num_experts, 1))
    assignment[:1] += leftover  # conserve tokens exactly
    assignments = np.tile(assignment, (num_moe_layers, 1, 1))
    engine.step(assignments, 0)  # warm-up: one-time group creations
    times = [
        engine.step(assignments, step + 1).step_time
        for step in range(3)
    ]
    return float(np.mean(times))


@dataclass(frozen=True)
class ServingCalibration:
    """One single-stream serving scenario, calibrated to its substrate.

    Attributes:
        balanced_batch_s: Probed seconds of one balanced full batch.
        rate_rps: Arrival rate putting ``load`` times the balanced token
            capacity on the server.
        expected_duration: Seconds the stream takes at ``rate_rps``.
        slo: The shared objective, in balanced-batch units.
        batching: Micro-batch budget and backpressure bound.
        requests: The materialized stream every server consumes.
        model: The serving model.
        routing: The topic-to-expert routing model.
    """

    balanced_batch_s: float
    rate_rps: float
    expected_duration: float
    slo: SLOConfig
    batching: BatchingConfig
    requests: tuple[Request, ...]
    model: MoEModelConfig
    routing: TopicRoutingModel


def calibrate_serving(
    num_moe_layers: int,
    num_gpus: int,
    num_experts: int,
    num_requests: int,
    mean_tokens: int,
    max_batch_tokens: int,
    arrival: str,
    load: float,
    slo_batches: float,
    queue_factor: float,
    skew: float,
    topic_drift: float,
    num_topics: int,
    seed: int,
    diurnal_cycles: float = 3.0,
) -> ServingCalibration:
    """Calibrate one single-stream serving scenario to its substrate.

    A probe on ``num_gpus`` devices measures the balanced batch; the
    arrival rate is ``load`` times the resulting token capacity, the SLO
    ``slo_batches`` balanced batches, and a diurnal stream spans
    ``diurnal_cycles`` day/night periods over its expected duration.
    ``serve``, the composed scenario and the churn scenario all start
    here, so every comparison they make shares one calibration.
    """
    if num_requests < 1:
        raise ConfigurationError("num_requests must be >= 1")
    if mean_tokens < 1:
        raise ConfigurationError("mean_tokens must be >= 1")
    if not load > 0:
        raise ConfigurationError("load must be > 0")
    base = probe_batch_seconds(
        num_moe_layers, num_gpus, num_experts, max_batch_tokens, seed=seed
    )
    capacity_tokens_per_s = max_batch_tokens / base
    rate_rps = load * capacity_tokens_per_s / mean_tokens
    slo = SLOConfig(
        latency_target=slo_batches * base,
        # React early: a couple of batch-times of p99 or two queued
        # batches of backlog starts rebalancing well before the SLO
        # itself is in danger.
        trigger_p99=3.0 * base,
        queue_limit_tokens=2.0 * max_batch_tokens,
    )
    batching = BatchingConfig(
        max_batch_tokens=max_batch_tokens,
        max_queue_tokens=int(queue_factor * max_batch_tokens),
    )
    # The calibrated clock runs on modelled step seconds (milliseconds of
    # simulated time for the whole stream), so the diurnal period must be
    # compressed to the stream's own timescale: a few day/night cycles
    # over the expected duration, not a literal 60 s wall-clock day.
    expected_duration = num_requests / rate_rps
    requests = RequestStream(
        RequestStreamConfig(
            arrival=arrival,
            rate_rps=rate_rps,
            num_requests=num_requests,
            mean_tokens=mean_tokens,
            max_tokens=max_batch_tokens,
            diurnal_period_s=expected_duration / diurnal_cycles,
            num_topics=num_topics,
            topic_drift=topic_drift,
            seed=seed,
        )
    ).generate()
    return ServingCalibration(
        balanced_batch_s=base,
        rate_rps=rate_rps,
        expected_duration=expected_duration,
        slo=slo,
        batching=batching,
        requests=requests,
        model=_serving_model(num_moe_layers, num_experts),
        routing=TopicRoutingModel(
            num_moe_layers, num_experts, num_topics, skew=skew, seed=seed
        ),
    )


@dataclass(frozen=True)
class ServingRunResult:
    """Outcome of one FlexMoE-vs-Static serving comparison.

    Attributes:
        flexmoe: The dynamic server's report.
        static: The frozen baseline's report.
        slo: The shared objective.
        scenario: The calibrated scenario parameters (for the JSON
            report's provenance section).
    """

    flexmoe: ServingReport
    static: ServingReport
    slo: SLOConfig
    scenario: dict[str, object]

    def summary(self, smoke: bool = False) -> dict[str, object]:
        """The JSON report, sealed with the named
        :data:`~repro.bench.gates.SERVING_LATENCY` gates."""
        flex, static = self.flexmoe, self.static
        return seal({
            "suite": "serving_latency",
            "smoke": smoke,
            "seed": self.scenario["seed"],
            "scenario": dict(self.scenario),
            "slo_latency_s": self.slo.latency_target,
            "flexmoe": flex.summary(),
            "static": static.summary(),
            "p99_speedup": (
                static.p99 / flex.p99 if flex.p99 > 0 else float("inf")
            ),
            "goodput_gain": (
                flex.goodput_tokens_per_s / static.goodput_tokens_per_s
                if static.goodput_tokens_per_s > 0
                else float("inf")
            ),
        })


def serving_run(
    num_moe_layers: int = 2,
    num_gpus: int = 8,
    num_experts: int = 16,
    num_requests: int = 400,
    mean_tokens: int = 512,
    max_batch_tokens: int = 4096,
    arrival: str = "bursty",
    load: float = 0.9,
    slo_batches: float = 8.0,
    skew: float = 2.0,
    topic_drift: float = 0.4,
    num_topics: int = 4,
    faults: FaultConfig | None = None,
    seed: int = 0,
) -> ServingRunResult:
    """One seeded serving scenario: FlexMoE vs Static on the same stream.

    Args:
        load: Offered load relative to the probed balanced token
            capacity (1.0 = exactly saturating an ideally balanced
            server; skew pushes the real servers past it).
        slo_batches: Per-request SLO in balanced-batch durations.
        faults: Optional elasticity injection; its ``failure_step`` /
            ``recovery_steps`` are interpreted in *batch* indices.
        seed: Drives the stream, substrates, profiles and gate sampling.

    Both servers consume the identical materialized request sequence and
    seed-matched substrates; they differ only in whether dynamic
    placement reacts. Deterministic under a fixed seed.
    """
    setup = calibrate_serving(
        num_moe_layers, num_gpus, num_experts, num_requests, mean_tokens,
        max_batch_tokens, arrival, load, slo_batches, QUEUE_FACTOR, skew,
        topic_drift, num_topics, seed,
    )
    cluster = cluster_for(num_gpus)
    elasticity = (
        ElasticitySchedule.from_fault_config(faults, num_gpus)
        if faults is not None
        else None
    )
    flex_server, static_server = (
        build_flexmoe_serving(
            cluster, setup.model, setup.requests, setup.batching, setup.slo,
            num_moe_layers=num_moe_layers, routing=setup.routing,
            elasticity=elasticity, skew=skew, seed=seed, dynamic=dynamic,
        )
        for dynamic in (True, False)
    )
    scenario = {
        "num_moe_layers": num_moe_layers,
        "num_gpus": num_gpus,
        "num_experts": num_experts,
        "num_requests": num_requests,
        "mean_tokens": mean_tokens,
        "max_batch_tokens": max_batch_tokens,
        "arrival": arrival,
        "load": load,
        "rate_rps": setup.rate_rps,
        "balanced_batch_s": setup.balanced_batch_s,
        "skew": skew,
        "num_faults": 0 if elasticity is None else len(elasticity),
        "seed": seed,
    }
    return ServingRunResult(
        flexmoe=flex_server.run(),
        static=static_server.run(),
        slo=setup.slo,
        scenario=scenario,
    )


def serving_suite(
    smoke: bool = False, seed: int = 0, **scenario: object
) -> dict[str, object]:
    """The sealed ``serving_latency`` report of one :func:`serving_run`
    of ``scenario``.

    ``smoke`` runs the fixed scenario CI gates on instead: the default
    skewed bursty stream near saturation, 250 requests, no faults.
    """
    if smoke:
        scenario = {"num_requests": 250}
    return serving_run(seed=seed, **scenario).summary(smoke=smoke)


def _mix_counts(num_requests: int) -> tuple[int, int]:
    """Requests per tenant of :func:`tenant_mix`: half the stream is
    interactive traffic, the rest splits across the two batch tenants."""
    return max(num_requests // 2, 1), max(num_requests // 4, 1)


def tenant_mix(
    base: float,
    max_batch_tokens: int,
    num_requests: int,
    interactive_rate: float,
    batch_rate: float,
    interactive_slo_batches: float,
    batch_slo_batches: float,
    interactive_tokens: int,
    batch_tokens: int,
    num_topics: int,
    topic_drift: float,
    seed: int,
) -> tuple[TenantSpec, ...]:
    """The interactive + two-batch tenant mix, priced in balanced batches.

    ``chat`` is the ``interactive`` class (priority 10, not preemptible,
    bursty, SLO ``interactive_slo_batches`` batches of ``base`` seconds,
    placement trigger at two); ``batch-a`` and ``batch-b`` are the
    ``batch`` class (priority 0, preemptible, Poisson, SLO
    ``batch_slo_batches`` batches, a half-batch quota per micro-batch and
    four batches of per-tenant backpressure). Callers set the rates.
    """
    n_interactive, n_batch = _mix_counts(num_requests)
    interactive_class = TenantClass(
        name="interactive",
        slo=SLOConfig(
            latency_target=interactive_slo_batches * base,
            trigger_p99=2.0 * base,
            queue_limit_tokens=2.0 * max_batch_tokens,
        ),
        priority=10,
        preemptible=False,
    )
    batch_class = TenantClass(
        name="batch",
        slo=SLOConfig(latency_target=batch_slo_batches * base),
        priority=0,
        preemptible=True,
    )
    chat = TenantSpec(
        name="chat",
        stream=RequestStreamConfig(
            arrival="bursty",
            rate_rps=interactive_rate,
            num_requests=n_interactive,
            mean_tokens=interactive_tokens,
            max_tokens=max_batch_tokens,
            num_topics=num_topics,
            topic_drift=topic_drift,
            seed=seed,
        ),
        tenant_class=interactive_class,
    )
    batch = tuple(
        TenantSpec(
            name=name,
            stream=RequestStreamConfig(
                arrival="poisson",
                rate_rps=batch_rate,
                num_requests=n_batch,
                mean_tokens=batch_tokens,
                max_tokens=max_batch_tokens,
                num_topics=num_topics,
                topic_drift=topic_drift,
                seed=seed + 1 + index,
            ),
            tenant_class=batch_class,
            quota_tokens=max_batch_tokens // 2,
            max_queue_tokens=4 * max_batch_tokens,
        )
        for index, name in enumerate(("batch-a", "batch-b"))
    )
    return (chat, *batch)


@dataclass(frozen=True)
class MultiTenantRunResult:
    """Outcome of one multi-tenant admission-discipline comparison.

    Attributes:
        flexmoe: FlexMoE placement + priority admission + preemption.
        fifo: Static placement + global-FIFO admission (the baseline
            serving tier: no classes, no quotas, no preemption).
        scenario: Calibrated scenario parameters (JSON provenance).
        tenants: Per-tenant provenance rows (JSON provenance).
        fairness_floor: Minimum Jain index the verdict demands of the
            priority server -- priority must not buy interactive latency
            by starving the batch tenants outright.
    """

    flexmoe: ServingReport
    fifo: ServingReport
    scenario: dict[str, object]
    tenants: tuple[dict[str, object], ...]
    fairness_floor: float = 0.5

    def interactive_attainment(self, report: ServingReport) -> float:
        return float(
            report.per_class_summary()["interactive"]["slo_attainment"]
        )

    def summary(self, smoke: bool = False) -> dict[str, object]:
        """The JSON report, sealed with the named
        :data:`~repro.bench.gates.MULTITENANT_SERVING` gates."""
        flex, fifo = self.flexmoe, self.fifo
        return seal({
            "suite": "multitenant_serving",
            "smoke": smoke,
            "seed": self.scenario["seed"],
            "scenario": dict(self.scenario),
            "tenants": [dict(row) for row in self.tenants],
            "flexmoe": flex.multitenant_summary(),
            "fifo": fifo.multitenant_summary(),
            "interactive_attainment": {
                "flexmoe": self.interactive_attainment(flex),
                "fifo": self.interactive_attainment(fifo),
            },
            "attainment_gain": (
                self.interactive_attainment(flex)
                - self.interactive_attainment(fifo)
            ),
            "jain_fairness": flex.jain_fairness_index(),
            "fairness_floor": self.fairness_floor,
        })


def multitenant_run(
    num_moe_layers: int = 2,
    num_gpus: int = 8,
    num_experts: int = 16,
    num_requests: int = 400,
    max_batch_tokens: int = 4096,
    interactive_tokens: int = 256,
    batch_tokens: int = 768,
    load: float = 0.9,
    interactive_share: float = 0.4,
    interactive_slo_batches: float = 4.0,
    batch_slo_batches: float = 20.0,
    fairness_floor: float = 0.5,
    skew: float = 2.0,
    topic_drift: float = 0.4,
    num_topics: int = 4,
    seed: int = 0,
) -> MultiTenantRunResult:
    """Mixed interactive/batch load: priority admission vs plain FIFO.

    Three tenants contend for one expert pool: an ``interactive`` tenant
    (high priority, tight SLO, bursty arrivals, short requests, not
    preemptible) and two ``batch`` tenants (priority 0, loose SLO,
    Poisson arrivals, long requests, per-batch quota and per-tenant
    backpressure, preemptible). Rates are calibrated so the *combined*
    token load is ``load`` times the probed balanced capacity, split
    ``interactive_share`` / rest by tokens.

    The same merged stream runs through two servers: FlexMoE placement
    with priority admission and preemption, against static placement
    with a single global FIFO. The verdict (``summary()["ok"]``) requires the priority server to
    strictly beat FIFO on interactive-class SLO attainment while holding
    a Jain fairness index of at least ``fairness_floor`` across tenants.
    Deterministic under a fixed seed.
    """
    if num_requests < 1:
        raise ConfigurationError("num_requests must be >= 1")
    if not load > 0:
        raise ConfigurationError("load must be > 0")
    base = probe_batch_seconds(
        num_moe_layers, num_gpus, num_experts, max_batch_tokens, seed=seed
    )
    capacity_tokens_per_s = max_batch_tokens / base
    token_rate = load * capacity_tokens_per_s
    n_interactive, _ = _mix_counts(num_requests)
    # One shared horizon T makes the streams overlap: each tenant's rate
    # is its request count over T, and T is chosen so the combined token
    # rate equals the calibrated load.
    interactive_token_rate = interactive_share * token_rate
    batch_token_rate = (1.0 - interactive_share) * token_rate / 2.0
    horizon = max(
        n_interactive * interactive_tokens / interactive_token_rate,
        1e-9,
    )
    interactive_rate = n_interactive / horizon
    batch_rate = batch_token_rate / batch_tokens
    tenants = tenant_mix(
        base, max_batch_tokens, num_requests, interactive_rate, batch_rate,
        interactive_slo_batches, batch_slo_batches, interactive_tokens,
        batch_tokens, num_topics, topic_drift, seed,
    )
    requests = merge_tenant_requests(tenants)
    cluster = cluster_for(num_gpus)
    model = _serving_model(num_moe_layers, num_experts)
    routing = TopicRoutingModel(
        num_moe_layers, num_experts, num_topics, skew=skew, seed=seed
    )
    batching = BatchingConfig(
        max_batch_tokens=max_batch_tokens,
        max_queue_tokens=16 * max_batch_tokens,
    )
    flex_server, fifo_server = (
        build_multitenant_serving(
            cluster, model, tenants, batching, requests=requests,
            num_moe_layers=num_moe_layers, routing=routing, skew=skew,
            seed=seed, dynamic=dynamic, admission_policy=policy,
            preemption=dynamic,
        )
        for dynamic, policy in ((True, "priority"), (False, "fifo"))
    )
    scenario = {
        "num_moe_layers": num_moe_layers,
        "num_gpus": num_gpus,
        "num_experts": num_experts,
        "num_requests": len(requests),
        "max_batch_tokens": max_batch_tokens,
        "load": load,
        "rate_rps": interactive_rate + 2.0 * batch_rate,
        "interactive_share": interactive_share,
        "balanced_batch_s": base,
        "skew": skew,
        "seed": seed,
    }
    tenant_rows = tuple(
        {
            "name": spec.name,
            "class": spec.tenant_class.name,
            "priority": spec.tenant_class.priority,
            "preemptible": spec.tenant_class.preemptible,
            "weight": spec.weight,
            "quota_tokens": spec.quota_tokens,
            "max_queue_tokens": spec.max_queue_tokens,
            "arrival": spec.stream.arrival,
            "rate_rps": spec.stream.rate_rps,
            "num_requests": spec.stream.num_requests,
            "mean_tokens": spec.stream.mean_tokens,
            "slo_latency_s": spec.tenant_class.slo.latency_target,
        }
        for spec in tenants
    )
    return MultiTenantRunResult(
        flexmoe=flex_server.run(),
        fifo=fifo_server.run(),
        scenario=scenario,
        tenants=tenant_rows,
        fairness_floor=fairness_floor,
    )


def multitenant_suite(
    smoke: bool = False, seed: int = 0, **scenario: object
) -> dict[str, object]:
    """The sealed ``multitenant_serving`` report of one
    :func:`multitenant_run` of ``scenario``.

    ``smoke`` runs the fixed scenario CI gates on instead: 2 MoE layers x
    16 experts on 8 GPUs, 200 requests, one interactive tenant against two
    batch tenants near saturation.
    """
    if smoke:
        scenario = {"num_requests": 200}
    return multitenant_run(seed=seed, **scenario).summary(smoke=smoke)
