"""Serving-engine builders: dynamic FlexMoE vs the static baseline.

Two servers over the identical substrate, stream and front-end:

* :func:`build_flexmoe_serving` -- the dynamic server: every layer's
  Scheduler carries a :class:`~repro.core.trigger.LatencyTrigger` derived
  from the SLO, so p99/queue-depth pressure starts Policy Maker rounds
  and the background Migrate pass keeps consolidating replicas.
* :func:`build_static_serving` -- :class:`StaticServing`: the placement
  frozen at the balanced initial layout
  (:class:`~repro.core.trigger.NeverTrigger`, Migrate off). Forced
  eviction still happens under device failures -- routing to a dead
  device is never valid -- but nothing rebalances afterwards, exactly
  like the training faults baseline.

Both builders delegate to
:func:`repro.runtime.pipeline.build_engine`, so a shared seed gives both
servers the same profiled figures and jitter stream; they differ only in
whether dynamic placement is allowed to react.
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster.events import ElasticitySchedule
from repro.config import (
    ClusterConfig,
    MoEModelConfig,
    SchedulerConfig,
    auto_slots_per_gpu,
)
from repro.core.trigger import LatencyTrigger, NeverTrigger
from repro.runtime.pipeline import build_engine
from repro.serving.admission import BatchingConfig
from repro.serving.engine import ServingEngine, TopicRoutingModel
from repro.serving.requests import Request, TenantSpec
from repro.serving.slo import SLOConfig


def strictest_tenant_slo(tenants: Sequence[TenantSpec]) -> SLOConfig:
    """The tightest class SLO across ``tenants``.

    Multi-tenant servers trigger placement on the most demanding class:
    reacting early enough for the tightest latency target protects every
    looser one as well.
    """
    return min(
        (spec.tenant_class.slo for spec in tenants),
        key=lambda slo: slo.latency_target,
    )


class StaticServing(ServingEngine):
    """The never-rebalancing baseline server (identical front-end)."""

    name = "StaticServing"


def serving_scheduler_config(
    model: MoEModelConfig,
    cluster: ClusterConfig,
    elasticity: ElasticitySchedule | None,
    migrate: bool,
) -> SchedulerConfig:
    """Shared scheduler shape of both servers.

    Elastic runs keep the training faults harness's conventions: a
    replication floor of 2 (a single failure never destroys an expert's
    only copy) and two slack slots per GPU so the Expand/Shrink loop has
    room to move above the pinned floor.
    """
    elastic = elasticity is not None
    slots = auto_slots_per_gpu(model.num_experts, cluster.num_gpus)
    return SchedulerConfig(
        migrate=migrate,
        speed_aware_balance=elastic,
        min_replicas=2 if elastic else 1,
        slots_per_gpu=slots + 2 if elastic else slots,
    )


def build_flexmoe_serving(
    cluster: ClusterConfig,
    model: MoEModelConfig,
    requests: Sequence[Request],
    batching: BatchingConfig,
    slo: SLOConfig,
    num_moe_layers: int | None = None,
    routing: TopicRoutingModel | None = None,
    elasticity: ElasticitySchedule | None = None,
    skew: float = 1.3,
    seed: int = 0,
    initial_live: int | None = None,
) -> ServingEngine:
    """The dynamic server: SLO-triggered placement over the live pool.

    ``initial_live`` starts the pool smaller than the substrate: the
    first ``initial_live`` devices serve from the seed layout while the
    rest sit dark as standby capacity an
    :class:`~repro.sim.sources.AutoscalerSource` can provision into.
    """
    engine = build_engine(
        cluster,
        model,
        num_moe_layers=num_moe_layers,
        scheduler_config=serving_scheduler_config(
            model, cluster, elasticity, migrate=True
        ),
        elasticity=elasticity,
        seed=seed,
        initial_live=initial_live,
        trigger_factory=lambda: LatencyTrigger(
            p99_target=slo.effective_trigger_p99,
            queue_limit_tokens=slo.queue_limit_tokens,
        ),
        inference=True,
    )
    engine.name = "FlexMoE-serving"
    return ServingEngine(
        engine, requests, batching, slo, routing=routing, skew=skew,
        seed=seed,
    )


def build_static_serving(
    cluster: ClusterConfig,
    model: MoEModelConfig,
    requests: Sequence[Request],
    batching: BatchingConfig,
    slo: SLOConfig,
    num_moe_layers: int | None = None,
    routing: TopicRoutingModel | None = None,
    elasticity: ElasticitySchedule | None = None,
    skew: float = 1.3,
    seed: int = 0,
) -> StaticServing:
    """The frozen-placement baseline on the identical substrate."""
    engine = build_engine(
        cluster,
        model,
        num_moe_layers=num_moe_layers,
        scheduler_config=serving_scheduler_config(
            model, cluster, elasticity, migrate=False
        ),
        elasticity=elasticity,
        seed=seed,
        trigger_factory=NeverTrigger,
        inference=True,
    )
    engine.name = "StaticServing"
    return StaticServing(
        engine, requests, batching, slo, routing=routing, skew=skew,
        seed=seed,
    )


def build_multitenant_serving(
    cluster: ClusterConfig,
    model: MoEModelConfig,
    tenants: Sequence[TenantSpec],
    batching: BatchingConfig,
    requests: Sequence[Request] | None = None,
    num_moe_layers: int | None = None,
    routing: TopicRoutingModel | None = None,
    elasticity: ElasticitySchedule | None = None,
    skew: float = 1.3,
    seed: int = 0,
    dynamic: bool = True,
    admission_policy: str = "priority",
    preemption: bool = True,
    shed_low_priority: bool = False,
    initial_live: int | None = None,
) -> ServingEngine:
    """A multi-tenant server: priority admission over either placement mode.

    Args:
        tenants: One :class:`~repro.serving.requests.TenantSpec` per
            tenant; the engine's headline SLO (and the dynamic trigger)
            derive from the strictest class.
        requests: An explicitly merged stream (so two servers can share
            the identical sequence); ``None`` merges the tenants'
            streams here.
        dynamic: ``True`` builds the FlexMoE server (``LatencyTrigger``,
            Migrate on); ``False`` the frozen :class:`StaticServing`
            baseline (``NeverTrigger``, Migrate off).
        admission_policy: ``"priority"`` (weighted-fair priority
            admission with quotas) or ``"fifo"`` (the baseline
            discipline).
        preemption: Whether higher-priority arrivals preempt preemptible
            in-flight batches.
        shed_low_priority: Graceful degradation: under global
            backpressure, shed strictly-lower-priority queued work
            (tracked per tenant, folded into rejections) instead of
            rejecting the higher-priority arrival.
        initial_live: Start the pool smaller than the substrate; the
            remaining devices sit dark as autoscaler standby capacity.
    """
    slo = strictest_tenant_slo(tenants)
    engine = build_engine(
        cluster,
        model,
        num_moe_layers=num_moe_layers,
        scheduler_config=serving_scheduler_config(
            model, cluster, elasticity, migrate=dynamic
        ),
        elasticity=elasticity,
        seed=seed,
        initial_live=initial_live,
        trigger_factory=(
            (
                lambda: LatencyTrigger(
                    p99_target=slo.effective_trigger_p99,
                    queue_limit_tokens=slo.queue_limit_tokens,
                )
            )
            if dynamic
            else NeverTrigger
        ),
        inference=True,
    )
    cls = ServingEngine if dynamic else StaticServing
    engine.name = cls.name
    return cls(
        engine, requests, batching, slo, routing=routing, skew=skew,
        seed=seed, tenants=tenants,
        admission_policy=admission_policy, preemption=preemption,
        shed_low_priority=shed_low_priority,
    )
