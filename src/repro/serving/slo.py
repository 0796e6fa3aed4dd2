"""Serving objectives: per-request latency accounting, SLOs and goodput.

Training optimizes steps/second; serving optimizes *latency percentiles
under an SLO*. This module holds the accounting:

* :class:`RequestRecord` -- one served request's latency split into its
  queue wait (arrival to batch dispatch) and execute time (the modelled
  duration of the batch it rode);
* :class:`LatencyWindow` -- the rolling window of recent latencies whose
  p99 feeds the :class:`~repro.core.trigger.LatencyTrigger`;
* :class:`SLOConfig` -- the per-request latency target plus the (earlier,
  tighter) trigger thresholds the placement driver reacts on;
* :class:`ServingReport` -- the run outcome: p50/p95/p99 latencies,
  goodput (tokens per second served *within* the SLO) and SLO attainment
  with rejected requests counted as misses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.serving.requests import Request


@dataclass(frozen=True)
class SLOConfig:
    """Latency objective and the trigger thresholds derived from it.

    Attributes:
        latency_target: Per-request SLO in simulated seconds: a request
            whose total latency (queue + execute) exceeds it is an SLO
            miss.
        trigger_p99: Rolling-p99 threshold that fires a scheduling round;
            ``None`` defaults to ``0.6 * latency_target`` so placement
            reacts *before* requests actually miss the SLO.
        queue_limit_tokens: Queue-depth trigger threshold in tokens;
            ``None`` disables the queue signal.
        window: Number of recent request latencies in the rolling-p99
            window.
    """

    latency_target: float
    trigger_p99: float | None = None
    queue_limit_tokens: float | None = None
    window: int = 64

    def __post_init__(self) -> None:
        if self.latency_target <= 0:
            raise ConfigurationError("latency_target must be > 0")
        if self.trigger_p99 is not None and self.trigger_p99 <= 0:
            raise ConfigurationError("trigger_p99 must be > 0")
        if self.queue_limit_tokens is not None and self.queue_limit_tokens < 0:
            raise ConfigurationError("queue_limit_tokens must be >= 0")
        if self.window < 1:
            raise ConfigurationError("window must be >= 1")

    @property
    def effective_trigger_p99(self) -> float:
        """The p99 threshold the placement driver actually uses."""
        if self.trigger_p99 is not None:
            return self.trigger_p99
        return 0.6 * self.latency_target


@dataclass(frozen=True)
class TenantClass:
    """A service class shared by one or more tenants.

    Attributes:
        name: Class identifier (``interactive`` / ``batch`` / ...).
        slo: The per-request latency objective every tenant of this
            class is measured against.
        priority: Admission priority; higher values dispatch first, and
            an arrival of a strictly higher priority preempts a
            preemptible in-flight batch of a lower one.
        preemptible: Whether an in-flight batch led by this class may be
            preempted by higher-priority arrivals. Preempted work is
            re-queued at the front of its tenants' queues with its
            fairness credit refunded -- never dropped.
    """

    name: str
    slo: SLOConfig
    priority: int = 0
    preemptible: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("class name must not be empty")


@dataclass(frozen=True)
class TenancyInfo:
    """Per-tenant configuration plus preemption counters of one run.

    Index ``t`` of every tuple describes tenant ``t`` (the
    :class:`~repro.serving.requests.Request.tenant` id).

    Attributes:
        names: Tenant names.
        class_names: Each tenant's service-class name.
        priorities: Each tenant's admission priority.
        weights: Each tenant's weighted-fair share.
        slos: Each tenant's per-request latency objective.
        preemptions: In-flight batches preempted over the run.
        preempted_requests: Requests re-queued by those preemptions
            (counted per preemption; a twice-preempted request counts
            twice).
        wasted_seconds: Simulated execute time thrown away by
            preemptions (the preempted batches re-execute in full).
        shed_requests: Queued requests shed by graceful degradation
            (lower-priority work evicted to admit higher-priority
            arrivals under backpressure). Shed requests are folded into
            the report's rejected set -- these counters attribute them.
        shed_by_tenant: Per-tenant shed counts; empty when the run never
            enabled shedding.
    """

    names: tuple[str, ...]
    class_names: tuple[str, ...]
    priorities: tuple[int, ...]
    weights: tuple[float, ...]
    slos: tuple[SLOConfig, ...]
    preemptions: int = 0
    preempted_requests: int = 0
    wasted_seconds: float = 0.0
    shed_requests: int = 0
    shed_by_tenant: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        n = len(self.names)
        if n == 0:
            raise ConfigurationError("TenancyInfo needs at least one tenant")
        for field in ("class_names", "priorities", "weights", "slos"):
            if len(getattr(self, field)) != n:
                raise ConfigurationError(
                    f"{field} must have one entry per tenant"
                )

    @property
    def num_tenants(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class RequestRecord:
    """One served request with its latency decomposition.

    Attributes:
        request: The request served.
        start: Simulated time its micro-batch dispatched.
        queue_time: Seconds between arrival and dispatch.
        execute_time: Modelled duration of the batch it rode (every
            request in a micro-batch completes when the batch does).
    """

    request: Request
    start: float
    queue_time: float
    execute_time: float

    def __post_init__(self) -> None:
        if self.queue_time < 0:
            raise ConfigurationError("queue_time must be >= 0")
        if self.execute_time < 0:
            raise ConfigurationError("execute_time must be >= 0")

    @property
    def latency(self) -> float:
        """Total request latency: queue wait plus execute time."""
        return self.queue_time + self.execute_time


class LatencyWindow:
    """Rolling window of recent request latencies (the trigger's p99).

    Backed by a fixed numpy ring buffer rather than a deque: batch
    completions ingest a whole latency column in one
    :meth:`observe_batch` call, and :meth:`p99` reads the live slice
    without materializing an intermediate list. The percentile is
    order-independent, so the ring's rotation never changes the value a
    deque-backed window would report.
    """

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ConfigurationError("window must be >= 1")
        self._window = int(window)
        self._buffer = np.zeros(self._window, dtype=float)
        self._size = 0  # valid entries (saturates at window)
        self._pos = 0  # next write position

    def observe_batch(self, latencies: np.ndarray) -> None:
        """Ingest a batch of latencies (oldest first) in O(batch) numpy.

        Equivalent to appending each element in order to a window of the
        last ``window`` latencies: only the trailing ``window`` elements
        can remain visible, so the rest never need to touch the buffer.
        """
        values = np.asarray(latencies, dtype=float).ravel()
        if values.size >= self._window:
            tail = values[values.size - self._window:]
            self._buffer[: self._window] = tail
            # A full overwrite leaves the ring positioned at 0 -- the
            # buffer holds exactly the last `window` observations.
            self._pos = 0
            self._size = self._window
            return
        first = min(values.size, self._window - self._pos)
        self._buffer[self._pos: self._pos + first] = values[:first]
        if first < values.size:
            self._buffer[: values.size - first] = values[first:]
        self._pos = (self._pos + values.size) % self._window
        self._size = min(self._window, self._size + values.size)

    def p99(self) -> float | None:
        """Rolling p99, or ``None`` before any request completed.

        Computed via :func:`np.partition` plus numpy's own linear
        interpolation formula (``_lerp`` switches direction at
        ``gamma >= 0.5``), which is bit-identical to
        ``np.percentile(..., 99.0)`` while skipping its generic
        dispatch machinery -- this probe runs once per micro-batch on
        the serving hot path.
        """
        if not self._size:
            return None
        n = self._size
        virtual = (99.0 / 100.0) * (n - 1)
        lo = int(virtual)
        gamma = virtual - lo
        hi = min(lo + 1, n - 1)
        part = np.partition(self._buffer[:n], (lo, hi))
        a = float(part[lo])
        b = float(part[hi])
        diff = b - a
        if gamma >= 0.5:
            return b - diff * (1.0 - gamma)
        return a + diff * gamma

    def publish(self, registry, **labels) -> None:
        """Publish the window's rolling signals as ``serving.window.*``
        gauges into a :class:`~repro.telemetry.registry.MetricsRegistry`."""
        p99 = self.p99()
        if p99 is not None:
            registry.gauge("serving.window.p99_s", **labels).set(p99)
        registry.gauge("serving.window.size", **labels).set(self._size)

    def attainment(self, target: float) -> float | None:
        """Rolling SLO attainment: the fraction of the window's
        latencies at or under ``target``, or ``None`` before any request
        completed. The capacity controller's third pressure signal --
        p99 reacts to the tail, queue depth to backlog, attainment to
        sustained widespread misses."""
        if not self._size:
            return None
        return float((self._buffer[: self._size] <= target).mean())


@dataclass(frozen=True)
class ServingReport:
    """Outcome of one serving run.

    Attributes:
        engine: Serving-engine name (``FlexMoE-serving`` /
            ``StaticServing``).
        records: Served requests in completion order.
        rejected: Requests turned away by admission backpressure.
        slo: The objective the run was measured against.
        num_batches: Micro-batches executed.
        sim_duration: Simulated seconds from start to the last batch's
            completion.
        placement_actions: Placement actions committed by the engine
            over the run (0 for the static baseline).
        tenancy: Multi-tenant configuration and preemption counters;
            ``None`` for single-stream runs (the per-class accessors
            then raise). The flat :meth:`summary` never touches it, so
            single-tenant reductions stay byte-identical to the
            single-stream path.
    """

    engine: str
    records: tuple[RequestRecord, ...]
    rejected: tuple[Request, ...]
    slo: SLOConfig
    num_batches: int
    sim_duration: float
    placement_actions: int = 0
    tenancy: TenancyInfo | None = None

    # ------------------------------------------------------------------
    # Latency
    # ------------------------------------------------------------------
    @property
    def latencies(self) -> np.ndarray:
        return np.array([r.latency for r in self.records])

    @property
    def queue_times(self) -> np.ndarray:
        return np.array([r.queue_time for r in self.records])

    @property
    def execute_times(self) -> np.ndarray:
        return np.array([r.execute_time for r in self.records])

    def latency_percentile(self, q: float) -> float:
        if not self.records:
            return float("inf")
        return float(np.percentile(self.latencies, q))

    @property
    def p50(self) -> float:
        return self.latency_percentile(50.0)

    @property
    def p95(self) -> float:
        return self.latency_percentile(95.0)

    @property
    def p99(self) -> float:
        return self.latency_percentile(99.0)

    # ------------------------------------------------------------------
    # Goodput / SLO attainment
    # ------------------------------------------------------------------
    @property
    def offered_requests(self) -> int:
        return len(self.records) + len(self.rejected)

    @property
    def goodput_tokens_per_s(self) -> float:
        """Tokens per simulated second served *within* the SLO.

        Rejected requests and SLO misses contribute nothing: goodput is
        the useful work rate, not the raw throughput.
        """
        if self.sim_duration <= 0:
            return 0.0
        good = sum(
            r.request.tokens
            for r in self.records
            if r.latency <= self.slo.latency_target
        )
        return good / self.sim_duration

    @property
    def slo_attainment(self) -> float:
        """Fraction of *offered* requests finishing within the SLO.

        Rejections count as misses -- shedding a request does not excuse
        it from the objective.
        """
        offered = self.offered_requests
        if offered == 0:
            return 1.0
        good = sum(
            1 for r in self.records if r.latency <= self.slo.latency_target
        )
        return good / offered

    def summary(self) -> dict[str, float]:
        """Flat aggregate view (the JSON report's per-engine section)."""
        return {
            "requests_served": float(len(self.records)),
            "requests_rejected": float(len(self.rejected)),
            "num_batches": float(self.num_batches),
            "sim_duration_s": float(self.sim_duration),
            "p50_latency_s": self.p50,
            "p95_latency_s": self.p95,
            "p99_latency_s": self.p99,
            "mean_queue_s": (
                float(self.queue_times.mean()) if self.records else 0.0
            ),
            "mean_execute_s": (
                float(self.execute_times.mean()) if self.records else 0.0
            ),
            "goodput_tokens_per_s": self.goodput_tokens_per_s,
            "slo_attainment": self.slo_attainment,
            "placement_actions": float(self.placement_actions),
        }

    def publish_metrics(self, registry) -> None:
        """Publish this report's aggregates into a
        :class:`~repro.telemetry.registry.MetricsRegistry`, labeled by
        engine, so a session's metrics snapshot carries every server's
        latency percentiles and goodput."""
        for name, value in self.summary().items():
            registry.gauge(f"serving.{name}", engine=self.engine).set(value)

    # ------------------------------------------------------------------
    # Multi-tenant accounting (requires ``tenancy``)
    # ------------------------------------------------------------------
    def _require_tenancy(self) -> TenancyInfo:
        if self.tenancy is None:
            raise ConfigurationError(
                "this report carries no tenancy info (single-stream run)"
            )
        return self.tenancy

    def _tenant_partition(
        self,
    ) -> tuple[list[list[RequestRecord]], list[list[Request]]]:
        """Records and rejections grouped by tenant id."""
        info = self._require_tenancy()
        records: list[list[RequestRecord]] = [
            [] for _ in range(info.num_tenants)
        ]
        rejected: list[list[Request]] = [[] for _ in range(info.num_tenants)]
        for record in self.records:
            records[record.request.tenant].append(record)
        for request in self.rejected:
            rejected[request.tenant].append(request)
        return records, rejected

    def per_tenant_summary(self) -> dict[str, dict[str, object]]:
        """Per-tenant served/offered tokens and SLO attainment.

        Attainment is measured against the *tenant's own class SLO*
        (tight for interactive tenants, loose for batch ones), with
        rejections counted as misses exactly as in the aggregate view.
        """
        info = self._require_tenancy()
        records, rejected = self._tenant_partition()
        out: dict[str, dict[str, float]] = {}
        for t, name in enumerate(info.names):
            target = info.slos[t].latency_target
            served = records[t]
            offered = len(served) + len(rejected[t])
            good = sum(1 for r in served if r.latency <= target)
            latencies = np.array([r.latency for r in served])
            out[name] = {
                "class": info.class_names[t],
                "priority": float(info.priorities[t]),
                "weight": float(info.weights[t]),
                "requests_served": float(len(served)),
                "requests_rejected": float(len(rejected[t])),
                "served_tokens": float(
                    sum(r.request.tokens for r in served)
                ),
                "offered_tokens": float(
                    sum(r.request.tokens for r in served)
                    + sum(r.tokens for r in rejected[t])
                ),
                "p99_latency_s": (
                    float(np.percentile(latencies, 99.0))
                    if len(served)
                    else float("inf")
                ),
                "requests_shed": (
                    float(info.shed_by_tenant[t])
                    if info.shed_by_tenant
                    else 0.0
                ),
                "slo_attainment": good / offered if offered else 1.0,
            }
        return out

    def per_class_summary(self) -> dict[str, dict[str, float]]:
        """Per-service-class SLO attainment (the bench's gate signal).

        Tenants of one class share its SLO; the class attainment is the
        fraction of the class's *offered* requests finishing within it,
        rejections counted as misses.
        """
        info = self._require_tenancy()
        records, rejected = self._tenant_partition()
        classes: dict[str, dict[str, float]] = {}
        for t in range(info.num_tenants):
            name = info.class_names[t]
            entry = classes.setdefault(
                name,
                {
                    "priority": float(info.priorities[t]),
                    "slo_latency_s": info.slos[t].latency_target,
                    "requests_served": 0.0,
                    "requests_rejected": 0.0,
                    "requests_shed": 0.0,
                    "served_tokens": 0.0,
                    "slo_attainment_hits": 0.0,
                },
            )
            target = info.slos[t].latency_target
            entry["requests_served"] += len(records[t])
            entry["requests_rejected"] += len(rejected[t])
            if info.shed_by_tenant:
                entry["requests_shed"] += info.shed_by_tenant[t]
            entry["served_tokens"] += sum(
                r.request.tokens for r in records[t]
            )
            entry["slo_attainment_hits"] += sum(
                1 for r in records[t] if r.latency <= target
            )
        for entry in classes.values():
            offered = entry["requests_served"] + entry["requests_rejected"]
            entry["slo_attainment"] = (
                entry.pop("slo_attainment_hits") / offered if offered else 1.0
            )
        return classes

    def jain_fairness_index(self) -> float:
        """Jain's index over per-tenant weighted service ratios.

        Each tenant's allocation is its served/offered token ratio
        normalized by its weight, ``x_t = (served_t / offered_t) /
        weight_t``; the index is ``(sum x)^2 / (n * sum x^2)`` over
        tenants that offered any tokens. 1.0 is perfectly weighted-fair
        service, ``1/n`` is one tenant taking everything. Returns 1.0
        when no tenant offered work.
        """
        info = self._require_tenancy()
        records, rejected = self._tenant_partition()
        ratios = []
        for t in range(info.num_tenants):
            served = sum(r.request.tokens for r in records[t])
            offered = served + sum(r.tokens for r in rejected[t])
            if offered > 0:
                ratios.append((served / offered) / info.weights[t])
        if not ratios:
            return 1.0
        x = np.array(ratios)
        denom = len(x) * float((x * x).sum())
        if denom == 0:
            # Every tenant offered work and none was served at all.
            return 1.0
        return float(x.sum()) ** 2 / denom

    def multitenant_summary(self) -> dict[str, object]:
        """The flat :meth:`summary` plus the per-class/tenant sections."""
        info = self._require_tenancy()
        out: dict[str, object] = dict(self.summary())
        out["per_class"] = self.per_class_summary()
        out["per_tenant"] = self.per_tenant_summary()
        out["jain_fairness"] = self.jain_fairness_index()
        out["preemptions"] = float(info.preemptions)
        out["preempted_requests"] = float(info.preempted_requests)
        out["wasted_seconds"] = float(info.wasted_seconds)
        out["shed_requests"] = float(info.shed_requests)
        return out
