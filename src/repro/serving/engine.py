"""The online serving engine: discrete-event micro-batch execution.

:class:`ServingEngine` closes the loop the ROADMAP's north star asks for:
live, bursty request arrival driving the dynamic-placement core. It runs
on the unified discrete-event kernel (:mod:`repro.sim`): arrivals, batch
dispatches and completions are kernel events on one simulated clock
(see ``docs/simulation.md``), and the engine composes with any other
event source -- time-keyed elasticity, stream budgets -- in one
:class:`~repro.sim.scenario.Scenario`. Per batch:

1. **Admit** -- requests whose arrival time has passed enter the
   admission queue (or are rejected by backpressure).
2. **Batch** -- the front-end pops the next micro-batch under the
   ``max_batch_tokens`` budget (FIFO for a single stream; priority
   order, weighted-fair sharing and quotas across tenants).
3. **Schedule** -- the engine pushes the rolling p99 latency and queue
   depth to every layer's Scheduler
   (:meth:`~repro.runtime.pipeline.MultiLayerFlexMoEEngine.observe_serving_signals`);
   layers whose :class:`~repro.core.trigger.LatencyTrigger` fires run the
   ordinary Policy Maker / Migrate round -- the same code path training
   uses, triggered by SLO pressure instead of the imbalance ratio.
4. **Execute** -- the batch's per-layer gate assignments (derived from
   its topic composition by :class:`TopicRoutingModel`) route over the
   active placements and play through the pipelined executor; the clock
   advances by the modelled step time, and every request in the batch
   records ``queue_time`` (arrival to dispatch) plus ``execute_time``.

Elasticity composes for free: the wrapped
:class:`~repro.runtime.pipeline.MultiLayerFlexMoEEngine` applies its
event schedule keyed by *batch index*, so device failures and recoveries
land mid-stream and serving continues on the surviving pool
(``examples/online_serving.py`` demonstrates this).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import telemetry
from repro.exceptions import ConfigurationError, SimulationError
from repro.runtime.pipeline import MultiLayerFlexMoEEngine
from repro.sim import MultiTenantServingSource, Scenario
from repro.serving.admission import (
    ADMISSION_POLICIES,
    BatchingConfig,
    PriorityAdmissionQueue,
)
from repro.serving.requests import (
    Request,
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
from repro.workload.synthetic import LAYER_SEED_STRIDE, stationary_skewed_probs

#: EWMA factor of the demand estimate the schedulers observe: each batch
#: contributes this fraction, the running estimate the rest. A
#: micro-batch is a small sample of the live distribution, so scheduling
#: on the raw batch would chase sampling noise.
POPULARITY_SMOOTHING = 0.3


class TopicRoutingModel:
    """Maps a batch's topic composition to per-layer expert popularity.

    Every (layer, topic) pair owns a Zipf-skewed expert profile with its
    own random rank permutation, so which experts run hot depends on the
    live topic mix and is uncorrelated across layers -- the serving
    analogue of the training workload's per-layer popularity
    permutations. As the stream's topic mix drifts, the blended expert
    distribution drifts with it, which is exactly the non-stationarity
    dynamic placement exists to absorb.

    Args:
        num_layers: MoE layers of the served model.
        num_experts: Experts per layer.
        num_topics: Topic vocabulary size of the request stream.
        skew: Zipf exponent of each topic's expert profile (~1.3 matches
            the paper's observed skew).
        seed: Base seed; profiles are a pure function of
            ``(seed, layer, topic)``.
    """

    def __init__(
        self,
        num_layers: int,
        num_experts: int,
        num_topics: int,
        skew: float = 1.3,
        seed: int = 0,
    ) -> None:
        if num_layers < 1:
            raise ConfigurationError("num_layers must be >= 1")
        if num_topics < 1:
            raise ConfigurationError("num_topics must be >= 1")
        profiles = np.empty((num_layers, num_topics, num_experts))
        for layer in range(num_layers):
            for topic in range(num_topics):
                rng = np.random.default_rng(
                    seed + layer * LAYER_SEED_STRIDE + topic
                )
                profiles[layer, topic] = stationary_skewed_probs(
                    num_experts, skew, rng
                )
        self._profiles = profiles
        self._profiles.setflags(write=False)

    @property
    def num_layers(self) -> int:
        return self._profiles.shape[0]

    @property
    def num_topics(self) -> int:
        return self._profiles.shape[1]

    @property
    def num_experts(self) -> int:
        return self._profiles.shape[2]

    def batch_probs_arrays(
        self, layer: int, tokens: np.ndarray, topics: np.ndarray
    ) -> np.ndarray:
        """:meth:`batch_probs` from precomputed token/topic columns.

        ``topics`` must already be reduced modulo :attr:`num_topics`.
        The serving engine takes the columns once per batch from the
        admission queue instead of walking the request objects once per
        layer.
        """
        if tokens.size == 0:
            raise SimulationError("batch must not be empty")
        mixed = tokens @ self._profiles[layer, topics]
        return mixed / mixed.sum()


def single_stream_tenant(slo: SLOConfig) -> TenantSpec:
    """The one implicit tenant a server built without tenants admits
    through: no quota, no per-tenant bound, nothing to preempt, so its
    priority admission is plain FIFO under the batch token budget."""
    return TenantSpec(
        name="default",
        stream=RequestStreamConfig(),
        tenant_class=TenantClass("default", slo),
    )


class ServingEngine:
    """SLO-aware online serving over the multi-layer placement engine.

    Args:
        engine: The placement/execution engine. Build it with a
            ``trigger_factory`` producing
            :class:`~repro.core.trigger.LatencyTrigger` instances for the
            dynamic server (see :mod:`repro.serving.baseline` for the
            canonical builders) or ``NeverTrigger`` for the static one.
        requests: The request stream to serve (any order; sorted by
            arrival internally).
        batching: Front-end micro-batching and backpressure bounds.
        slo: Latency objective and trigger thresholds.
        routing: Topic-to-expert model; ``None`` builds one from the
            engine's shape and the requests' topic range.
        skew: Zipf exponent for a default-built routing model.
        seed: Seed of the multinomial token-scatter RNG (gate sampling).
        tenants: Multi-tenant mode: one
            :class:`~repro.serving.requests.TenantSpec` per tenant id.
            The front-end is a
            :class:`~repro.serving.admission.PriorityAdmissionQueue`
            either way; with tenants, arrivals may preempt
            lower-priority in-flight batches and the report grows
            per-class/per-tenant sections. ``None`` serves the stream
            as one implicit tenant (plain FIFO, nothing to preempt, no
            tenancy section). ``requests`` may be ``None`` in
            multi-tenant mode (the tenants' streams are merged via
            :func:`~repro.serving.requests.merge_tenant_requests`) or an
            explicitly merged sequence shared between servers.
        admission_policy: Multi-tenant batch ordering -- ``"priority"``
            (weighted-fair priority admission with quotas) or
            ``"fifo"`` (global arrival order, the baseline discipline).
        preemption: Whether higher-priority arrivals preempt preemptible
            lower-priority in-flight batches (multi-tenant mode only).
        shed_low_priority: Graceful degradation under capacity loss
            (multi-tenant mode only): when global backpressure would
            reject an arrival, strictly-lower-priority queued work is
            shed -- tracked per tenant and folded into the rejected set,
            never silently dropped -- so interactive SLO attainment
            degrades last. See
            :class:`~repro.serving.admission.PriorityAdmissionQueue`.
    """

    name = "FlexMoE-serving"

    def __init__(
        self,
        engine: MultiLayerFlexMoEEngine,
        requests: Sequence[Request] | None,
        batching: BatchingConfig,
        slo: SLOConfig,
        routing: TopicRoutingModel | None = None,
        skew: float = 1.3,
        seed: int = 0,
        tenants: Sequence[TenantSpec] | None = None,
        admission_policy: str = "priority",
        preemption: bool = True,
        shed_low_priority: bool = False,
    ) -> None:
        if admission_policy not in ADMISSION_POLICIES:
            raise ConfigurationError(
                f"admission_policy must be one of {ADMISSION_POLICIES}, "
                f"got {admission_policy!r}"
            )
        if tenants is not None and not tenants:
            raise ConfigurationError("tenants must not be empty")
        if requests is None:
            if tenants is None:
                raise ConfigurationError(
                    "requests may only be omitted in multi-tenant mode"
                )
            requests = merge_tenant_requests(tenants)
        num_tenants = 1 if tenants is None else len(tenants)
        bad = [r.index for r in requests if r.tenant >= num_tenants]
        if bad:
            raise ConfigurationError(
                f"requests {bad[:3]} reference tenants outside the "
                f"configured {num_tenants}"
            )
        if not requests:
            raise ConfigurationError("requests must not be empty")
        self._engine = engine
        executor = engine.pipelined_executor.executor
        self._num_gpus = executor.topology.num_gpus
        if routing is None:
            num_topics = max(r.topic for r in requests) + 1
            routing = TopicRoutingModel(
                engine.num_moe_layers,
                executor.model.num_experts,
                num_topics,
                skew=skew,
                seed=seed,
            )
        if routing.num_layers != engine.num_moe_layers:
            raise ConfigurationError(
                f"routing model covers {routing.num_layers} layers but the "
                f"engine has {engine.num_moe_layers}"
            )
        self._routing = routing
        self._requests = tuple(sorted(requests, key=lambda r: (r.arrival, r.index)))
        self._batching = batching
        self._slo = slo
        self._rng = np.random.default_rng(seed)
        if shed_low_priority and tenants is None:
            raise ConfigurationError(
                "shed_low_priority requires multi-tenant mode: the "
                "single-stream queue has no priority order to shed by"
            )
        self._tenants = tuple(tenants) if tenants is not None else None
        self._admission_policy = admission_policy
        self._preemption = bool(preemption)
        self._shed_low_priority = bool(shed_low_priority)
        self._demand_estimate: np.ndarray | None = None
        self._report: ServingReport | None = None

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def engine(self) -> MultiLayerFlexMoEEngine:
        return self._engine

    @property
    def routing(self) -> TopicRoutingModel:
        return self._routing

    @property
    def slo(self) -> SLOConfig:
        return self._slo

    @property
    def tenants(self) -> tuple[TenantSpec, ...] | None:
        """The tenant specs in multi-tenant mode (``None`` otherwise)."""
        return self._tenants

    @property
    def report(self) -> ServingReport | None:
        """The last :meth:`run` outcome (``None`` before any run)."""
        return self._report

    # ------------------------------------------------------------------
    # Batch-to-assignment translation
    # ------------------------------------------------------------------
    def _batch_assignments(
        self, tokens: np.ndarray, topics: np.ndarray
    ) -> np.ndarray:
        """Per-layer gate assignments ``(layers, experts, gpus)`` of a batch.

        The batch's tokens shard evenly over the source GPUs (the serving
        tier's data-parallel entry points); each shard routes its tokens
        multinomially by the batch's blended expert distribution, layer
        by layer. Dead devices' shards are re-sharded by the wrapped
        engine exactly as in training.

        ``tokens``/``topics`` are the batch's columns from the admission
        queue (``topics`` reduced modulo the routing model's vocabulary).
        One multinomial draw over every layer's per-GPU shard sizes: the
        same samples and RNG stream as one draw per layer and GPU, layer
        by layer and GPU by GPU (an empty shard draws nothing), which
        every seeded serving result depends on.
        """
        per_gpu, remainder = divmod(int(tokens.sum()), self._num_gpus)
        counts = per_gpu + (np.arange(self._num_gpus) < remainder)
        probs = np.stack([
            self._routing.batch_probs_arrays(layer, tokens, topics)
            for layer in range(self._engine.num_moe_layers)
        ])
        draws = self._rng.multinomial(counts, probs[:, None, :])
        return np.ascontiguousarray(draws.transpose(0, 2, 1))

    def _update_demand(self, assignments: np.ndarray) -> np.ndarray:
        """Fold one batch into the smoothed demand estimate.

        Returns the per-layer scheduling view (float tensor of the same
        shape as the batch assignments). Batches vary in size, so each
        batch is normalized to a full-batch token scale before blending
        -- the estimate tracks the *distribution*, not the batch size.
        """
        batch = np.asarray(assignments, dtype=float)
        total = batch.sum(axis=(1, 2), keepdims=True)
        scale = np.where(total > 0, self._batching.max_batch_tokens / total, 1.0)
        batch = batch * scale
        if self._demand_estimate is None:
            self._demand_estimate = batch
        else:
            self._demand_estimate = (
                POPULARITY_SMOOTHING * batch
                + (1.0 - POPULARITY_SMOOTHING) * self._demand_estimate
            )
        return self._demand_estimate

    # ------------------------------------------------------------------
    # The discrete-event loop
    # ------------------------------------------------------------------
    def _warm_up(self) -> None:
        """Pre-create the initial placements' replica-group communicators.

        Only relevant when serving over a *training-shaped* engine (whose
        steps AllReduce replica gradients): there, a long-running server
        performs these one-time handshakes before accepting traffic, and
        without the warm-up the very first batch would absorb hundreds of
        milliseconds of group creation and shed the opening burst.
        Inference-shaped engines (the shipped builders) never synchronize
        gradients, so there is nothing to warm.
        """
        executor = self._engine.pipelined_executor.executor
        cache = executor.group_cache
        if cache is None or executor.inference:
            return
        for placement in self._engine.placements():
            for group in placement.replica_groups().values():
                if len(group) > 1:
                    cache.acquire(group)

    def event_source(
        self, stream_budget: float | None = None
    ) -> "_ServingRun":
        """The server as a kernel event source (arrival/dispatch/completion).

        Returns a :class:`_ServingRun` handle whose ``source`` can be
        composed into any :class:`~repro.sim.scenario.Scenario` --
        alongside time-keyed elasticity, stream-budget grants, or other
        traffic -- and whose ``report()`` assembles the
        :class:`~repro.serving.slo.ServingReport` once the kernel has
        drained. :meth:`run` is the single-source case. Every arrival is
        its own kernel event, so a finite scenario horizon leaves
        not-yet-served arrivals queued, never un-offered.

        Args:
            stream_budget: Per-batch adjustment-stream budget forwarded
                to the engine's commit phase. ``None`` (default) grants
                each batch its own duration, the classic behaviour;
                ``0.0`` defers all commits to an external
                :class:`~repro.sim.sources.StreamBudgetSource`.
        """
        self._warm_up()
        return _ServingRun(self, stream_budget=stream_budget)

    def run(self) -> ServingReport:
        """Serve the whole stream and return the latency/goodput report.

        The stream runs as arrival/batch/completion events on the shared
        discrete-event kernel.
        """
        run = self.event_source()
        Scenario(
            name=f"serve-{type(self).name}",
            sources=(run.source,),
        ).run()
        self._report = run.report()
        return self._report


class _ServingRun:
    """One serving run's mutable state plus its kernel event source.

    Owns the admission queue, the rolling latency window, and the
    per-request latency columns;
    :class:`~repro.sim.sources.MultiTenantServingSource` drives it on
    the kernel clock. The serve callback is split: :meth:`dispatch`
    models and times the batch, but latencies are only recorded when
    :meth:`complete` fires -- a preempted batch is re-queued instead and
    never recorded until it genuinely finishes.

    A server built without tenants runs as one implicit tenant (no
    quota, no per-tenant bound, nothing to preempt), where priority
    admission is plain FIFO; its report carries no tenancy section. A
    multi-tenant report carries a
    :class:`~repro.serving.slo.TenancyInfo` (per-class attainment,
    preemption counters, fairness index).
    """

    def __init__(
        self, engine: ServingEngine, stream_budget: float | None = None
    ) -> None:
        self._server = engine
        self._stream_budget = stream_budget
        self.queue = PriorityAdmissionQueue(
            engine._batching,
            engine._tenants or (single_stream_tenant(engine.slo),),
            policy=engine._admission_policy,
            shed_low_priority=engine._shed_low_priority,
        )
        self.window = LatencyWindow(engine.slo.window)
        self.requests = engine._requests
        self.actions = 0
        # Start/queue/execute float64 columns grown geometrically, plus
        # the served requests in completion order. RequestRecord objects
        # are materialized at report time -- the hot loop never
        # allocates them.
        self._served: list[Request] = []
        self._count = 0
        self._columns = np.empty((3, 256), dtype=float)
        # The in-flight batch's queue-time column, stashed at dispatch
        # for the completion (or discarded by a preemption). At most one
        # batch is ever in flight, so a single slot suffices.
        self._pending_queue_col: np.ndarray | None = None
        self.source = MultiTenantServingSource(
            self.requests,
            self.queue,
            self.dispatch,
            self.complete,
            preemption=engine._preemption,
        )

    def dispatch(
        self, batch: Sequence[Request], now: float, index: int
    ) -> float:
        """Push signals, route and execute one micro-batch through the
        engine at simulated time ``now``; returns its modelled duration.
        Accounting waits for its completion."""
        server = self._server
        server._engine.observe_serving_signals(
            p99_latency=self.window.p99(),
            queue_tokens=float(self.queue.queued_tokens),
            slo_attainment=self.window.attainment(
                server.slo.latency_target
            ),
        )
        assignments = server._batch_assignments(
            self.queue.last_batch_tokens.astype(float),
            self.queue.last_batch_topics % server._routing.num_topics,
        )
        self._pending_queue_col = now - self.queue.last_batch_arrivals
        pending = server._engine.step_schedule(
            assignments,
            index,
            scheduling_assignments=server._update_demand(assignments),
        )
        server._engine.step_execute(pending)
        result = server._engine.step_commit(
            pending, stream_budget=self._stream_budget
        )
        self.actions += result.scheduling_actions
        return result.step_time

    def complete(
        self, batch: Sequence[Request], start: float, execute: float
    ) -> None:
        """Record the batch that genuinely finished (never preempted):
        append its latency columns and feed the window."""
        queue_col = self._pending_queue_col
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

    def _materialized_records(self) -> tuple[RequestRecord, ...]:
        """Build the RequestRecord tuple from the columns."""
        starts = self._columns[0, : self._count].tolist()
        queues = self._columns[1, : self._count].tolist()
        execs = self._columns[2, : self._count].tolist()
        return tuple(
            RequestRecord(
                request=request, start=s, queue_time=q, execute_time=x
            )
            for request, s, q, x in zip(self._served, starts, queues, execs)
        )

    def _tenancy(self) -> TenancyInfo | None:
        tenants = self._server._tenants
        if tenants is None:
            return None
        source = self.source
        return TenancyInfo(
            names=tuple(t.name for t in tenants),
            class_names=tuple(t.tenant_class.name for t in tenants),
            priorities=tuple(t.tenant_class.priority for t in tenants),
            weights=tuple(t.weight for t in tenants),
            slos=tuple(t.tenant_class.slo for t in tenants),
            preemptions=source.preemptions,
            preempted_requests=source.preempted_requests,
            wasted_seconds=source.wasted_seconds,
            shed_requests=self.queue.shed_requests,
            shed_by_tenant=tuple(
                self.queue.shed_by_tenant(t) for t in range(len(tenants))
            ),
        )

    def report(self) -> ServingReport:
        """Assemble the report from the kernel source's final state."""
        report = ServingReport(
            engine=type(self._server).name,
            records=self._materialized_records(),
            # Shed requests are degraded load, not vanished load: they
            # fold into the rejected set (counting as SLO misses
            # everywhere) and the tenancy counters attribute them per
            # tenant.
            rejected=tuple(self.source.rejected) + self.queue.shed,
            slo=self._server.slo,
            num_batches=self.source.num_batches,
            sim_duration=self.source.last_completion,
            placement_actions=self.actions,
            tenancy=self._tenancy(),
        )
        tel = telemetry.current()
        if tel is not None:
            # Publish the run's aggregates (percentiles, goodput,
            # attainment) and the rolling window's final signals so
            # readers consume the registry, not the report internals.
            report.publish_metrics(tel.registry)
            self.window.publish(tel.registry, engine=report.engine)
        return report
