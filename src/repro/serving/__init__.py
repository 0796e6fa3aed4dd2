"""Online serving: SLO-aware request streams over dynamic placement.

The training side of this repository replays offline routing traces;
this package serves a *live* request stream against the same placement
core and asks the serving question: latency percentiles and goodput
under an SLO, not steps/second.

* :mod:`repro.serving.requests` -- seeded request streams
  (Poisson/bursty/diurnal arrival, lognormal token counts, drifting
  topic mixes that shift expert popularity), plus multi-tenant specs
  (:class:`TenantSpec`, :func:`merge_tenant_requests`);
* :mod:`repro.serving.admission` -- the front-end: continuous
  micro-batching under a token budget with queue backpressure in
  :class:`PriorityAdmissionQueue` (priority levels, weighted-fair
  sharing, per-batch quotas, preemption re-queueing; one tenant is
  plain FIFO);
* :mod:`repro.serving.slo` -- per-request latency accounting
  (queue + execute), rolling-p99 windows, goodput and SLO attainment,
  service classes (:class:`TenantClass`) and per-class/fairness
  reporting;
* :mod:`repro.serving.engine` -- the discrete-event serving loop over
  :class:`~repro.runtime.pipeline.MultiLayerFlexMoEEngine`, with the
  topic-to-expert routing model;
* :mod:`repro.serving.baseline` -- the dynamic-vs-static server pair
  (``LatencyTrigger`` vs ``NeverTrigger``) and the multi-tenant builder
  (:func:`build_multitenant_serving`).

The FlexMoE-vs-Static comparison harnesses live in
:mod:`repro.bench.serving` (``python -m repro serve`` /
``python -m repro serve --multi-tenant``, ``BENCH_serving_latency.json``
/ ``BENCH_multitenant.json``); see ``docs/serving.md`` for the model
and report format.
"""

from repro.serving.admission import (
    BatchingConfig,
    PriorityAdmissionQueue,
)
from repro.serving.baseline import (
    StaticServing,
    build_flexmoe_serving,
    build_multitenant_serving,
    strictest_tenant_slo,
)
from repro.serving.engine import ServingEngine, TopicRoutingModel
from repro.serving.requests import (
    Request,
    RequestStream,
    RequestStreamConfig,
    TenantSpec,
    merge_tenant_requests,
)
from repro.serving.slo import (
    LatencyWindow,
    RequestRecord,
    ServingReport,
    SLOConfig,
    TenancyInfo,
    TenantClass,
)

__all__ = [
    "BatchingConfig",
    "LatencyWindow",
    "PriorityAdmissionQueue",
    "Request",
    "RequestRecord",
    "RequestStream",
    "RequestStreamConfig",
    "SLOConfig",
    "ServingEngine",
    "ServingReport",
    "StaticServing",
    "TenancyInfo",
    "TenantClass",
    "TenantSpec",
    "TopicRoutingModel",
    "build_flexmoe_serving",
    "build_multitenant_serving",
    "merge_tenant_requests",
    "strictest_tenant_slo",
]
