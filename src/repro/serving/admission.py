"""Admission control and continuous micro-batching.

The serving front-end sits between the request stream and the engine: it
queues arrivals per tenant, forms micro-batches bounded by a token
budget (``max_batch_tokens``), and applies backpressure -- when the queue
already holds more than ``max_queue_tokens`` tokens, new arrivals are
rejected rather than queued, bounding worst-case latency the way a real
serving tier sheds load instead of letting its queue grow without limit.
A single-stream server is the one-tenant case: its queue is plain FIFO
under the token budget.

Rejections are an SLO event: the report counts every rejected request as
a missed SLO when computing goodput (:mod:`repro.serving.slo`), and the
queue's token depth is one of the two signals the
:class:`~repro.core.trigger.LatencyTrigger` fires on.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import telemetry
from repro.exceptions import ConfigurationError
from repro.serving.requests import Request, TenantSpec

#: Admission-ordering policies of :class:`PriorityAdmissionQueue`.
ADMISSION_POLICIES = ("priority", "fifo")


@dataclass(frozen=True)
class BatchingConfig:
    """Front-end knobs.

    Attributes:
        max_batch_tokens: Token budget of one micro-batch; the batcher
            pops FIFO requests until adding the next one would exceed it
            (a single oversized request still forms its own batch --
            requests are never split or dropped once admitted).
        max_queue_tokens: Backpressure bound on queued tokens; arrivals
            that would push the queue past it are rejected. ``None``
            disables rejection (unbounded queue).
    """

    max_batch_tokens: int = 4096
    max_queue_tokens: int | None = None

    def __post_init__(self) -> None:
        if self.max_batch_tokens < 1:
            raise ConfigurationError("max_batch_tokens must be >= 1")
        if self.max_queue_tokens is not None and self.max_queue_tokens < 1:
            raise ConfigurationError("max_queue_tokens must be >= 1")

    def replace(self, **changes: object) -> "BatchingConfig":
        """Return a copy of this config with ``changes`` applied."""
        return dataclasses.replace(self, **changes)


class PriorityAdmissionQueue:
    """Multi-tenant admission: priority levels, weighted-fair sharing,
    per-batch quotas, per-tenant backpressure and preemption support.

    Each tenant owns a FIFO sub-queue. Batch formation walks priority
    levels from highest to lowest; within a level it repeatedly picks
    the tenant with the smallest ``dispatched_tokens / weight`` stride
    key among tenants whose head request is *dispatchable* -- within its
    per-batch quota and fitting the remaining ``max_batch_tokens``
    budget. Formation descends to a lower level only when every
    remaining head at the current level is quota-blocked; a head that is
    merely budget-blocked (quota available but the batch is full) stops
    formation outright, so a dispatched batch never contains a
    lower-priority request while a dispatchable higher-priority request
    with remaining quota was queued -- the ordering invariant
    ``tests/test_serving_multitenant.py`` pins.

    Backpressure is two-level: the global ``max_queue_tokens`` bound of
    :class:`BatchingConfig` applies first (an empty queue always
    admits, even an oversized request -- rejection exists to bound
    *queueing*, not request size), then the tenant's own
    ``max_queue_tokens`` (an empty *tenant* queue always admits).

    Preemption support: :meth:`requeue` puts an in-flight batch back at
    the *front* of its tenants' sub-queues in original order and refunds
    the batch's fairness credit (the stride counters), so preempted work
    is never dropped and never double-billed.

    The popped batch's arrival/tokens/topic/tenant columns
    (:attr:`last_batch_arrivals`, :attr:`last_batch_tokens`,
    :attr:`last_batch_topics`, :attr:`last_batch_tenants`) are exposed
    as numpy arrays; the serving bookkeeping reads these instead of
    looping over the batch's request objects.

    Args:
        config: Global batch/backpressure bounds.
        tenants: One :class:`~repro.serving.requests.TenantSpec` per
            tenant id; requests' ``tenant`` fields index this sequence.
        policy: ``"priority"`` (the scheme above) or ``"fifo"`` --
            global arrival order ignoring priorities, quotas and
            weights (the baseline admission discipline; both levels of
            backpressure still apply). With one tenant and no per-tenant
            bounds, both policies reduce exactly to one FIFO queue.
        shed_low_priority: Graceful degradation under capacity loss.
            When global backpressure would reject an arrival, queued
            requests of *strictly lower* priority are shed from the
            tails of their sub-queues (lowest level first) until the
            arrival fits; the arrival is only rejected when no amount of
            lower-priority shedding frees enough room. Shed requests are
            never silently dropped: each is recorded (:attr:`shed`,
            per-tenant counters) and the report folds them into the
            rejected set, so they count as SLO misses exactly like
            ordinary rejections. The effect is that interactive SLO
            attainment degrades *last* when the pool shrinks -- batch
            load absorbs the capacity loss first. Requires the
            ``"priority"`` policy (FIFO has no priority order to shed
            by). Default off, preserving the established rejection
            behaviour byte for byte.
    """

    def __init__(
        self,
        config: BatchingConfig,
        tenants: Sequence[TenantSpec],
        policy: str = "priority",
        shed_low_priority: bool = False,
    ) -> None:
        if not tenants:
            raise ConfigurationError("tenants must not be empty")
        if policy not in ADMISSION_POLICIES:
            raise ConfigurationError(
                f"policy must be one of {ADMISSION_POLICIES}, got {policy!r}"
            )
        if shed_low_priority and policy != "priority":
            raise ConfigurationError(
                "shed_low_priority requires the 'priority' admission "
                "policy: FIFO admission has no priority order to shed by"
            )
        self._config = config
        self._tenants = tuple(tenants)
        self._policy = policy
        self._priorities = tuple(t.tenant_class.priority for t in self._tenants)
        # Distinct levels, highest first, with their tenant ids.
        self._levels: tuple[tuple[int, tuple[int, ...]], ...] = tuple(
            (
                level,
                tuple(
                    t
                    for t, p in enumerate(self._priorities)
                    if p == level
                ),
            )
            for level in sorted(set(self._priorities), reverse=True)
        )
        self._queues: tuple[deque[Request], ...] = tuple(
            deque() for _ in self._tenants
        )
        self._fifo: deque[Request] = deque()  # policy="fifo" only
        self._tenant_tokens = [0] * len(self._tenants)
        self._served_tokens = [0.0] * len(self._tenants)  # stride credit
        self._queued_tokens = 0
        self._queued_requests = 0
        self._rejected = 0
        self._shed_low_priority = bool(shed_low_priority)
        self._shed: list[Request] = []
        self._shed_counts = [0] * len(self._tenants)
        self.last_batch_arrivals: np.ndarray | None = None
        self.last_batch_tokens: np.ndarray | None = None
        self.last_batch_topics: np.ndarray | None = None
        self.last_batch_tenants: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def config(self) -> BatchingConfig:
        return self._config

    @property
    def tenants(self) -> tuple[TenantSpec, ...]:
        return self._tenants

    @property
    def policy(self) -> str:
        return self._policy

    @property
    def queued_requests(self) -> int:
        return self._queued_requests

    @property
    def queued_tokens(self) -> int:
        """Tokens currently waiting (the backpressure/trigger signal)."""
        return self._queued_tokens

    @property
    def shed(self) -> tuple[Request, ...]:
        """Queued requests shed to make room for higher-priority arrivals.

        Degraded load, tracked explicitly: the serving report folds
        these into its rejected set so every shed request is accounted
        as an SLO miss.
        """
        return tuple(self._shed)

    @property
    def shed_requests(self) -> int:
        return len(self._shed)

    def shed_by_tenant(self, tenant: int) -> int:
        """How many of ``tenant``'s queued requests were shed so far."""
        return self._shed_counts[tenant]

    def __len__(self) -> int:
        return self._queued_requests

    def highest_queued_priority(self) -> int | None:
        """Highest priority level with queued work (``None`` if empty)."""
        if not self._queued_requests:
            return None
        if self._policy == "fifo":
            return max(self._priorities[r.tenant] for r in self._fifo)
        for level, members in self._levels:
            if any(self._queues[t] for t in members):
                return level
        return None

    def batch_priority(self, batch: Sequence[Request]) -> int:
        """The priority an in-flight ``batch`` runs at (its maximum)."""
        return max(self._priorities[r.tenant] for r in batch)

    def batch_preemptible(self, batch: Sequence[Request]) -> bool:
        """Whether every class riding ``batch`` allows preemption."""
        return all(
            self._tenants[r.tenant].tenant_class.preemptible for r in batch
        )

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def offer(self, request: Request) -> bool:
        """Admit ``request``; ``False`` when either backpressure level
        rejects it. Empty (global / tenant) queues always admit."""
        tenant = request.tenant
        if not 0 <= tenant < len(self._tenants):
            raise ConfigurationError(
                f"request tenant {tenant} outside the configured "
                f"{len(self._tenants)} tenants"
            )
        limit = self._config.max_queue_tokens
        if (
            limit is not None
            and self._queued_requests
            and self._queued_tokens + request.tokens > limit
        ):
            if not (
                self._shed_low_priority and self._shed_for(request, limit)
            ):
                self._rejected += 1
                self._observe_admission("rejected", tenant)
                return False
        tenant_limit = self._tenants[tenant].max_queue_tokens
        if (
            tenant_limit is not None
            and self._tenant_tokens[tenant]
            and self._tenant_tokens[tenant] + request.tokens > tenant_limit
        ):
            self._rejected += 1
            self._observe_admission("rejected", tenant)
            return False
        if self._policy == "fifo":
            self._fifo.append(request)
        else:
            self._queues[tenant].append(request)
        self._tenant_tokens[tenant] += request.tokens
        self._queued_tokens += request.tokens
        self._queued_requests += 1
        self._observe_admission("admitted", tenant)
        return True

    @staticmethod
    def _observe_admission(outcome: str, tenant: int) -> None:
        """Telemetry tap: one admission decision (no-op when off)."""
        tel = telemetry.current()
        if tel is not None:
            tel.registry.counter(
                f"admission.{outcome}", tenant=tenant
            ).inc()

    def _shed_for(self, request: Request, limit: int) -> bool:
        """Shed strictly-lower-priority queued work until ``request`` fits.

        Walks priority levels bottom-up, strictly below the arrival's
        level, popping from the *tail* of the fullest member sub-queue
        (newest queued work goes first -- it has waited least). Nothing
        is shed unless the freed room actually admits the arrival: the
        candidate pops are only committed once enough tokens are freed,
        so a hopeless arrival cannot evict work and then bounce anyway.
        """
        arrival_level = self._priorities[request.tenant]
        needed = self._queued_tokens + request.tokens - limit
        victims: list[Request] = []
        freed = 0
        for level, members in reversed(self._levels):
            if level >= arrival_level:
                break
            pools = {t: list(self._queues[t]) for t in members}
            while freed < needed:
                tenant = max(
                    (t for t in members if pools[t]),
                    key=lambda t: (
                        sum(r.tokens for r in pools[t]),
                        t,
                    ),
                    default=None,
                )
                if tenant is None:
                    break
                victim = pools[tenant].pop()
                victims.append(victim)
                freed += victim.tokens
            if freed >= needed:
                break
        if freed < needed:
            return False
        for victim in victims:
            queue = self._queues[victim.tenant]
            removed = queue.pop()
            assert removed is victim  # tails pop in planning order
            self._tenant_tokens[victim.tenant] -= victim.tokens
            self._queued_tokens -= victim.tokens
            self._queued_requests -= 1
            self._shed_counts[victim.tenant] += 1
            self._shed.append(victim)
        tel = telemetry.current()
        if tel is not None:
            tel.registry.counter("admission.shed").inc(len(victims))
            tel.decision(
                tel.now(),
                "shed",
                f"tenant[{request.tenant}]",
                victims=len(victims),
                freed_tokens=freed,
            )
        return True

    # ------------------------------------------------------------------
    # Batch formation
    # ------------------------------------------------------------------
    def _pick(self, used: list[int], batch_tokens: int) -> int | None:
        """The next tenant to pop from, or ``None`` to stop.

        Walks priority levels top-down. At each level, heads are
        classified: quota-blocked heads are skipped (the level may be
        descended past), budget-blocked heads stop formation (returning
        ``None``), and among dispatchable heads the smallest
        ``served/weight`` stride key (ties to the lower tenant id) wins.
        """
        budget = self._config.max_batch_tokens
        for _, members in self._levels:
            best: int | None = None
            best_key: tuple[float, int] | None = None
            budget_blocked = False
            for tenant in members:
                queue = self._queues[tenant]
                if not queue:
                    continue
                head = queue[0]
                quota = self._tenants[tenant].quota_tokens
                if (
                    quota is not None
                    and used[tenant]
                    and used[tenant] + head.tokens > quota
                ):
                    continue  # quota-blocked: eligible to descend past
                if batch_tokens and batch_tokens + head.tokens > budget:
                    budget_blocked = True
                    continue
                key = (
                    self._served_tokens[tenant]
                    / self._tenants[tenant].weight,
                    tenant,
                )
                if best_key is None or key < best_key:
                    best, best_key = tenant, key
            if best is not None:
                return best
            if budget_blocked:
                return None  # higher-priority work exists but won't fit
        return None

    def next_batch(self) -> tuple[Request, ...]:
        """Pop the next micro-batch under the policy's ordering.

        Always returns at least one request when work is queued (the
        first pop ignores quotas and the budget, mirroring the
        oversized-request rule); the empty tuple otherwise.
        """
        if self._policy == "fifo":
            return self._next_batch_fifo()
        batch: list[Request] = []
        tokens = 0
        used = [0] * len(self._tenants)
        while True:
            tenant = self._pick(used, tokens)
            if tenant is None:
                break
            head = self._queues[tenant].popleft()
            batch.append(head)
            tokens += head.tokens
            used[tenant] += head.tokens
            self._served_tokens[tenant] += head.tokens
            self._tenant_tokens[tenant] -= head.tokens
        self._queued_tokens -= tokens
        self._queued_requests -= len(batch)
        self._collect_batch_meta(batch)
        return tuple(batch)

    def _next_batch_fifo(self) -> tuple[Request, ...]:
        batch: list[Request] = []
        tokens = 0
        budget = self._config.max_batch_tokens
        while self._fifo:
            head = self._fifo[0]
            if batch and tokens + head.tokens > budget:
                break
            batch.append(self._fifo.popleft())
            tokens += head.tokens
            self._served_tokens[head.tenant] += head.tokens
            self._tenant_tokens[head.tenant] -= head.tokens
        self._queued_tokens -= tokens
        self._queued_requests -= len(batch)
        self._collect_batch_meta(batch)
        return tuple(batch)

    def _collect_batch_meta(self, batch: Sequence[Request]) -> None:
        if not batch:
            return
        meta = np.array(
            [(r.arrival, r.tokens, r.topic, r.tenant) for r in batch],
            dtype=float,
        )
        self.last_batch_arrivals = meta[:, 0]
        self.last_batch_tokens = meta[:, 1].astype(np.int64)
        self.last_batch_topics = meta[:, 2].astype(np.int64)
        self.last_batch_tenants = meta[:, 3].astype(np.int64)

    # ------------------------------------------------------------------
    # Preemption support
    # ------------------------------------------------------------------
    def requeue(self, batch: Sequence[Request]) -> None:
        """Put a preempted in-flight ``batch`` back at the queue front.

        Requests return to the *front* of their tenants' sub-queues in
        their original relative order (they arrived before anything
        queued behind them), and the batch's fairness credit is refunded
        so a preempted tenant is not billed for work it never received.
        """
        for request in reversed(batch):
            tenant = request.tenant
            if self._policy == "fifo":
                self._fifo.appendleft(request)
            else:
                self._queues[tenant].appendleft(request)
            self._tenant_tokens[tenant] += request.tokens
            self._queued_tokens += request.tokens
            self._queued_requests += 1
            self._served_tokens[tenant] -= request.tokens

    def __repr__(self) -> str:
        return (
            f"PriorityAdmissionQueue({self._policy}, "
            f"tenants={len(self._tenants)}, "
            f"requests={self._queued_requests}, "
            f"tokens={self._queued_tokens}, rejected={self._rejected})"
        )
