"""Multi-tenant serving: SLO classes, priority admission, preemption.

The ISSUE-7 invariant layer. Two Hypothesis properties pin the
admission core:

* **conservation** -- across any interleaving of offers, dispatches and
  preemption requeues, every admitted request is either dispatched or
  still queued: nothing is lost, duplicated, or silently dropped;
* **priority ordering** -- a dispatched batch never contains a
  lower-priority request while a dispatchable higher-priority request
  (within its per-batch quota and the remaining batch budget) was
  queued, and requests of one tenant always dispatch in FIFO order.

Around them: config validation, weighted-fair/stride selection,
two-level backpressure, preemption semantics of
:class:`~repro.sim.sources.MultiTenantServingSource` (generation-stale
completions, requeue-at-front, credit refund), per-class/fairness
reporting, and eager admission under a finite scenario horizon (see
docs/serving.md).
"""

from collections import Counter, defaultdict, deque

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.exceptions import ConfigurationError
from repro.serving.admission import (
    ADMISSION_POLICIES,
    BatchingConfig,
    PriorityAdmissionQueue,
)
from repro.serving.engine import ServingEngine
from repro.serving.requests import (
    Request,
    RequestStreamConfig,
    TenantSpec,
    merge_tenant_requests,
)
from repro.serving.slo import (
    RequestRecord,
    ServingReport,
    SLOConfig,
    TenancyInfo,
    TenantClass,
)
from repro.sim import MultiTenantServingSource, Scenario

SLO = SLOConfig(latency_target=1.0)
INTERACTIVE = TenantClass("interactive", SLO, priority=10, preemptible=False)
BATCH = TenantClass("batch", SLOConfig(latency_target=5.0), priority=0)


def stream_config(rate=10.0, n=4, seed=0):
    return RequestStreamConfig(
        arrival="poisson", rate_rps=rate, num_requests=n, mean_tokens=64,
        max_tokens=256, seed=seed,
    )


def spec(name="t", tenant_class=BATCH, weight=1.0, quota=None, limit=None,
         **stream_kwargs):
    return TenantSpec(
        name=name,
        stream=stream_config(**stream_kwargs),
        tenant_class=tenant_class,
        weight=weight,
        quota_tokens=quota,
        max_queue_tokens=limit,
    )


def request(index, tokens, tenant=0, arrival=0.0, topic=0):
    return Request(
        index=index, arrival=arrival, tokens=tokens, topic=topic,
        tenant=tenant,
    )


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------
class TestTenantConfig:
    def test_tenant_class_validation(self):
        with pytest.raises(ConfigurationError):
            TenantClass("", SLO)

    def test_tenant_spec_validation(self):
        with pytest.raises(ConfigurationError):
            spec(name="")
        with pytest.raises(ConfigurationError):
            spec(weight=0.0)
        with pytest.raises(ConfigurationError):
            spec(quota=0)
        with pytest.raises(ConfigurationError):
            spec(limit=0)
        with pytest.raises(ConfigurationError):
            TenantSpec(name="x", stream=stream_config(), tenant_class=object())

    def test_request_tenant_validation(self):
        with pytest.raises(ConfigurationError):
            request(0, 10, tenant=-1)

    def test_tenancy_info_validation(self):
        with pytest.raises(ConfigurationError):
            TenancyInfo((), (), (), (), ())
        with pytest.raises(ConfigurationError):
            TenancyInfo(("a", "b"), ("c",), (0, 0), (1.0, 1.0), (SLO, SLO))

    def test_spec_priority_shortcut(self):
        assert spec(tenant_class=INTERACTIVE).priority == 10

    def test_merge_requires_unique_names(self):
        with pytest.raises(ConfigurationError):
            merge_tenant_requests([spec(name="a"), spec(name="a", seed=1)])
        with pytest.raises(ConfigurationError):
            merge_tenant_requests([])

    def test_merge_tags_sorts_and_reindexes(self):
        merged = merge_tenant_requests(
            [spec(name="a", seed=0), spec(name="b", seed=1)]
        )
        assert [r.index for r in merged] == list(range(len(merged)))
        arrivals = [r.arrival for r in merged]
        assert arrivals == sorted(arrivals)
        assert {r.tenant for r in merged} == {0, 1}

    def test_single_tenant_merge_is_identity(self):
        from repro.serving.requests import RequestStream

        one = spec(name="only", seed=3)
        assert merge_tenant_requests([one]) == RequestStream(
            one.stream
        ).generate()


# ---------------------------------------------------------------------------
# PriorityAdmissionQueue: deterministic unit coverage
# ---------------------------------------------------------------------------
def make_queue(tenants, max_batch_tokens=100, max_queue_tokens=None,
               policy="priority"):
    return PriorityAdmissionQueue(
        BatchingConfig(
            max_batch_tokens=max_batch_tokens,
            max_queue_tokens=max_queue_tokens,
        ),
        tenants,
        policy=policy,
    )


class TestPriorityQueueBasics:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_queue([])
        with pytest.raises(ConfigurationError):
            make_queue([spec()], policy="lifo")
        assert "priority" in ADMISSION_POLICIES

    def test_rejects_out_of_range_tenant(self):
        queue = make_queue([spec()])
        with pytest.raises(ConfigurationError):
            queue.offer(request(0, 10, tenant=5))

    def test_higher_priority_dispatches_first(self):
        queue = make_queue(
            [spec(name="lo"), spec(name="hi", tenant_class=INTERACTIVE)],
            max_batch_tokens=100,
        )
        queue.offer(request(0, 60, tenant=0))
        queue.offer(request(1, 60, tenant=1))
        batch = queue.next_batch()
        # hi's head dispatches; lo's would overflow the budget and a
        # budget-blocked head at any level stops formation.
        assert [r.tenant for r in batch] == [1]
        assert [r.tenant for r in queue.next_batch()] == [0]

    def test_first_pop_ignores_budget(self):
        queue = make_queue([spec()], max_batch_tokens=10)
        queue.offer(request(0, 500))
        assert [r.index for r in queue.next_batch()] == [0]

    def test_weighted_fair_stride_shares_by_weight(self):
        queue = make_queue(
            [spec(name="heavy", weight=3.0), spec(name="light", weight=1.0)],
            max_batch_tokens=40,
        )
        for i in range(12):
            queue.offer(request(2 * i, 10, tenant=0))
            queue.offer(request(2 * i + 1, 10, tenant=1))
        served = Counter()
        for _ in range(3):
            for r in queue.next_batch():
                served[r.tenant] += r.tokens
        # 3:1 weights over equal demand: the stride keys converge to a
        # 3:1 token split.
        assert served[0] == 3 * served[1]

    def test_equal_weights_tie_breaks_to_lower_tenant(self):
        queue = make_queue([spec(name="a"), spec(name="b")])
        queue.offer(request(0, 10, tenant=1))
        queue.offer(request(1, 10, tenant=0))
        assert queue.next_batch()[0].tenant == 0

    def test_quota_caps_tenant_share_per_batch(self):
        queue = make_queue(
            [spec(name="capped", quota=40), spec(name="free")],
            max_batch_tokens=100,
        )
        for i in range(5):
            queue.offer(request(i, 20, tenant=0))
        queue.offer(request(5, 20, tenant=1))
        batch = queue.next_batch()
        by_tenant = Counter(r.tenant for r in batch)
        assert by_tenant[0] == 2  # 40 of quota 40
        assert by_tenant[1] == 1

    def test_quota_never_blocks_first_pop(self):
        queue = make_queue([spec(quota=10)])
        queue.offer(request(0, 500))
        assert len(queue.next_batch()) == 1

    def test_fifo_policy_ignores_priorities(self):
        queue = make_queue(
            [spec(name="lo"), spec(name="hi", tenant_class=INTERACTIVE)],
            max_batch_tokens=100,
            policy="fifo",
        )
        queue.offer(request(0, 60, tenant=0))
        queue.offer(request(1, 60, tenant=1))
        assert [r.tenant for r in queue.next_batch()] == [0]

    def test_meta_exposes_tenant_column(self):
        queue = make_queue(
            [spec(name="a"), spec(name="b", tenant_class=INTERACTIVE)]
        )
        queue.offer(request(0, 10, tenant=0, arrival=0.5, topic=2))
        queue.offer(request(1, 20, tenant=1, arrival=0.7, topic=1))
        batch = queue.next_batch()
        assert queue.last_batch_tenants.tolist() == [r.tenant for r in batch]
        assert queue.last_batch_tokens.tolist() == [r.tokens for r in batch]
        assert queue.last_batch_arrivals.tolist() == [
            r.arrival for r in batch
        ]


class TestTwoLevelBackpressure:
    def test_global_limit_applies_first(self):
        queue = make_queue([spec()], max_queue_tokens=100)
        assert queue.offer(request(0, 60))
        assert queue.offer(request(1, 40))
        assert not queue.offer(request(2, 10))
        assert queue._rejected == 1

    def test_per_tenant_limit(self):
        queue = make_queue([spec(limit=50), spec(name="other")])
        assert queue.offer(request(0, 40, tenant=0))
        assert not queue.offer(request(1, 20, tenant=0))  # 60 > 50
        assert queue.offer(request(2, 20, tenant=1))  # other tenant free
        assert queue._rejected == 1

    def test_empty_tenant_queue_always_admits(self):
        queue = make_queue([spec(limit=50)])
        assert queue.offer(request(0, 500))  # oversized but tenant empty
        assert not queue.offer(request(1, 1))

    def test_empty_global_queue_always_admits(self):
        queue = make_queue([spec()], max_queue_tokens=50)
        assert queue.offer(request(0, 500))


class TestRequeue:
    def test_requeue_restores_front_order_and_counters(self):
        queue = make_queue([spec(name="a"), spec(name="b")])
        for i in range(4):
            queue.offer(request(i, 10, tenant=i % 2))
        batch = queue.next_batch()
        assert queue.queued_requests == 0
        queue.requeue(batch)
        assert queue.queued_requests == 4
        assert queue.queued_tokens == 40
        assert queue._tenant_tokens[0] == 20
        # Re-dispatch reproduces the identical batch.
        assert queue.next_batch() == batch

    def test_requeue_refunds_fairness_credit(self):
        queue = make_queue([spec(name="a"), spec(name="b")])
        queue.offer(request(0, 30, tenant=0))
        batch = queue.next_batch()
        assert queue._served_tokens[0] == 30.0
        queue.requeue(batch)
        assert queue._served_tokens[0] == 0.0

    def test_requeued_head_precedes_later_arrivals(self):
        queue = make_queue([spec()], max_batch_tokens=10)
        queue.offer(request(0, 10))
        batch = queue.next_batch()
        queue.offer(request(1, 10))
        queue.requeue(batch)
        assert [r.index for r in queue.next_batch()] == [0]


# ---------------------------------------------------------------------------
# Hypothesis: conservation + priority-ordering invariants (ISSUE-7)
# ---------------------------------------------------------------------------
def tenant_fleet():
    """2-4 tenants with arbitrary priorities, weights, quotas, limits."""
    single = st.builds(
        lambda p, w, q, m, pre: (p, w, q, m, pre),
        st.integers(0, 3),
        st.floats(0.5, 4.0, allow_nan=False),
        st.one_of(st.none(), st.integers(20, 120)),
        st.one_of(st.none(), st.integers(50, 400)),
        st.booleans(),
    )
    return st.lists(single, min_size=2, max_size=4).map(
        lambda rows: tuple(
            TenantSpec(
                name=f"t{i}",
                stream=stream_config(seed=i),
                tenant_class=TenantClass(
                    f"c{p}", SLO, priority=p, preemptible=pre
                ),
                weight=w,
                quota_tokens=q,
                max_queue_tokens=m,
            )
            for i, (p, w, q, m, pre) in enumerate(rows)
        )
    )


def op_sequence():
    return st.lists(
        st.one_of(
            st.tuples(
                st.just("offer"),
                st.integers(0, 3),  # tenant (mod fleet size)
                st.integers(1, 120),  # tokens
            ),
            st.tuples(st.just("batch")),
            st.tuples(st.just("requeue")),
        ),
        min_size=1,
        max_size=60,
    )


@settings(max_examples=120, deadline=None)
@given(
    tenants=tenant_fleet(),
    ops=op_sequence(),
    max_batch_tokens=st.integers(20, 200),
    max_queue_tokens=st.one_of(st.none(), st.integers(100, 600)),
)
def test_property_request_conservation(
    tenants, ops, max_batch_tokens, max_queue_tokens
):
    """Offers + dispatches + preemption requeues never lose or duplicate
    a request: admitted == dispatched + queued at every point, and the
    final drain recovers exactly the admitted multiset."""
    queue = make_queue(
        tenants,
        max_batch_tokens=max_batch_tokens,
        max_queue_tokens=max_queue_tokens,
    )
    admitted: Counter = Counter()
    dispatched: Counter = Counter()
    rejected = 0
    inflight = None  # the last dispatched batch, eligible for requeue
    next_index = 0
    for op in ops:
        if op[0] == "offer":
            _, tenant, tokens = op
            r = request(next_index, tokens, tenant=tenant % len(tenants))
            next_index += 1
            if queue.offer(r):
                admitted[r.index] += 1
            else:
                rejected += 1
        elif op[0] == "batch":
            batch = queue.next_batch()
            for r in batch:
                dispatched[r.index] += 1
            if batch:
                inflight = batch
        elif op[0] == "requeue" and inflight is not None:
            queue.requeue(inflight)
            for r in inflight:
                dispatched[r.index] -= 1
            inflight = None
        # Conservation holds at every intermediate state.
        queued = sum(admitted.values()) - sum(dispatched.values())
        assert queue.queued_requests == queued
        assert queue._rejected == rejected
    while queue.queued_requests:
        for r in queue.next_batch():
            dispatched[r.index] += 1
    assert dispatched == admitted  # same multiset: nothing lost, none twice
    assert queue.queued_tokens == 0
    assert all(count == 1 for count in dispatched.values())


@settings(max_examples=120, deadline=None)
@given(
    tenants=tenant_fleet(),
    offers=st.lists(
        st.tuples(st.integers(0, 3), st.integers(1, 120)),
        min_size=1,
        max_size=40,
    ),
    max_batch_tokens=st.integers(20, 200),
)
def test_property_priority_ordering_invariant(
    tenants, offers, max_batch_tokens
):
    """Replay each dispatched batch against a snapshot of the queues: a
    request only dispatches while no strictly-higher-priority tenant has
    a dispatchable head (within quota and the remaining batch budget),
    and each tenant's requests dispatch in FIFO order."""
    queue = make_queue(tenants, max_batch_tokens=max_batch_tokens)
    snapshot = defaultdict(deque)
    for index, (tenant, tokens) in enumerate(offers):
        r = request(index, tokens, tenant=tenant % len(tenants))
        if queue.offer(r):
            snapshot[r.tenant].append(r)

    priorities = [t.tenant_class.priority for t in tenants]
    quotas = [t.quota_tokens for t in tenants]
    while queue.queued_requests:
        batch = queue.next_batch()
        assert batch
        used = [0] * len(tenants)
        batch_tokens = 0
        for r in batch:
            # FIFO within the tenant: always its current head.
            assert snapshot[r.tenant][0] is r
            for other in range(len(tenants)):
                if priorities[other] <= priorities[r.tenant]:
                    continue
                if not snapshot[other]:
                    continue
                head = snapshot[other][0]
                quota = quotas[other]
                quota_ok = (
                    quota is None
                    or not used[other]
                    or used[other] + head.tokens <= quota
                )
                budget_ok = (
                    not batch_tokens
                    or batch_tokens + head.tokens <= max_batch_tokens
                )
                assert not (quota_ok and budget_ok), (
                    f"request of priority {priorities[r.tenant]} dispatched "
                    f"while tenant {other} (priority {priorities[other]}) "
                    "had a dispatchable head"
                )
            snapshot[r.tenant].popleft()
            used[r.tenant] += r.tokens
            batch_tokens += r.tokens


@settings(max_examples=60, deadline=None)
@given(
    offers=st.lists(st.integers(1, 120), min_size=1, max_size=30),
    max_batch_tokens=st.integers(20, 200),
    max_queue_tokens=st.one_of(st.none(), st.integers(50, 400)),
)
# Exact fills: a batch and the queue each land precisely on their bound.
@example(offers=[50, 50, 50, 1], max_batch_tokens=100, max_queue_tokens=150)
def test_property_single_tenant_reduces_to_plain_queue(
    offers, max_batch_tokens, max_queue_tokens
):
    """With one tenant and no per-tenant bounds, both policies drain
    batches identical to a plain FIFO queue with token backpressure --
    the single-stream server's front-end. The oracle is the deque model
    below: an empty queue always admits, a non-empty one rejects past
    ``max_queue_tokens``, and each batch pops FIFO heads until the next
    would exceed ``max_batch_tokens`` (the first always pops)."""
    fifo: deque = deque()
    for index, tokens in enumerate(offers):
        queued = sum(t for _, t in fifo)
        limit = max_queue_tokens
        if not fifo or limit is None or queued + tokens <= limit:
            fifo.append((index, tokens))
    expected = []
    while fifo:
        batch, batch_tokens = [], 0
        while fifo and (not batch or batch_tokens + fifo[0][1]
                        <= max_batch_tokens):
            batch.append(fifo[0][0])
            batch_tokens += fifo.popleft()[1]
        expected.append(tuple(batch))
    drained = {}
    for policy in ADMISSION_POLICIES:
        queue = make_queue(
            (spec(name="only"),),
            max_batch_tokens=max_batch_tokens,
            max_queue_tokens=max_queue_tokens,
            policy=policy,
        )
        batches = []
        for index, tokens in enumerate(offers):
            queue.offer(request(index, tokens))
        while queue.queued_requests:
            batches.append(tuple(r.index for r in queue.next_batch()))
        drained[policy] = batches
    assert drained["priority"] == expected
    assert drained["fifo"] == expected


# ---------------------------------------------------------------------------
# MultiTenantServingSource: preemption semantics on the kernel
# ---------------------------------------------------------------------------
def run_source(tenants, requests, max_batch_tokens=100, preemption=True,
               execute=10.0, duration=None):
    queue = make_queue(tenants, max_batch_tokens=max_batch_tokens)
    dispatched, completed, preempted = [], [], []

    def dispatch(batch, now, index):
        dispatched.append((batch, now, index))
        return execute

    source = MultiTenantServingSource(
        requests,
        queue,
        dispatch,
        complete=lambda batch, start, exe: completed.append((batch, start, exe)),
        preempted=lambda batch, start, elapsed: preempted.append(
            (batch, start, elapsed)
        ),
        preemption=preemption,
    )
    Scenario(
        name="mt-preempt", sources=(source,), duration=duration
    ).run()
    return source, dispatched, completed, preempted


PREEMPT_TENANTS = (
    spec(name="batch", tenant_class=BATCH),
    spec(name="chat", tenant_class=INTERACTIVE),
)


class TestPreemption:
    def test_higher_priority_arrival_preempts_inflight(self):
        requests = (
            request(0, 100, tenant=0, arrival=0.0),
            request(1, 100, tenant=1, arrival=1.0),
        )
        source, dispatched, completed, preempted = run_source(
            PREEMPT_TENANTS, requests
        )
        # batch dispatches at t=0, chat preempts at t=1, chat runs
        # 1..11, batch re-dispatches 11..21.
        assert source.preemptions == 1
        assert source.preempted_requests == 1
        assert source.wasted_seconds == pytest.approx(1.0)
        assert [r.index for b, _, _ in dispatched for r in b] == [0, 1, 0]
        assert [(b[0].index, start) for b, start, _ in completed] == [
            (1, 1.0),
            (0, 11.0),
        ]
        assert [b[0].index for b, _, _ in preempted] == [0]
        assert source.num_batches == 3  # the re-dispatch is a real batch
        assert not source.rejected

    def test_stale_completion_never_fires(self):
        """The preempted batch's scheduled completion (t=10) lands while
        the preemptor is in flight; a fired stale completion would
        record the wrong batch or free a busy server."""
        requests = (
            request(0, 100, tenant=0, arrival=0.0),
            request(1, 100, tenant=1, arrival=1.0),
        )
        _, _, completed, _ = run_source(PREEMPT_TENANTS, requests)
        assert all(start != 0.0 for _, start, _ in completed)

    def test_preemption_disabled_runs_to_completion(self):
        requests = (
            request(0, 100, tenant=0, arrival=0.0),
            request(1, 100, tenant=1, arrival=1.0),
        )
        source, _, completed, preempted = run_source(
            PREEMPT_TENANTS, requests, preemption=False
        )
        assert source.preemptions == 0
        assert not preempted
        assert [(b[0].index, start) for b, start, _ in completed] == [
            (0, 0.0),
            (1, 10.0),
        ]

    def test_non_preemptible_inflight_survives(self):
        tenants = (
            spec(
                name="pinned",
                tenant_class=TenantClass(
                    "pinned", SLO, priority=0, preemptible=False
                ),
            ),
            spec(name="chat", tenant_class=INTERACTIVE),
        )
        requests = (
            request(0, 100, tenant=0, arrival=0.0),
            request(1, 100, tenant=1, arrival=1.0),
        )
        source, _, completed, _ = run_source(tenants, requests)
        assert source.preemptions == 0
        assert completed[0][0][0].index == 0

    def test_equal_priority_never_preempts(self):
        tenants = (
            spec(name="a", tenant_class=BATCH),
            spec(name="b", tenant_class=BATCH.replace(name="batch2")),
        )
        requests = (
            request(0, 100, tenant=0, arrival=0.0),
            request(1, 100, tenant=1, arrival=1.0),
        )
        source, _, _, _ = run_source(tenants, requests)
        assert source.preemptions == 0

    def test_preempted_request_keeps_original_arrival_latency(self):
        """A preempted request's eventual record measures queue time
        from its *original* arrival -- preemption cost is visible, not
        erased."""
        requests = (
            request(0, 100, tenant=0, arrival=0.0),
            request(1, 100, tenant=1, arrival=1.0),
        )
        _, _, completed, _ = run_source(PREEMPT_TENANTS, requests)
        batch, start, _ = completed[-1]
        assert batch[0].index == 0
        assert start - batch[0].arrival == pytest.approx(11.0)


# ---------------------------------------------------------------------------
# Eager admission under a finite horizon (the composed-scenario bug class
# documented in docs/serving.md)
# ---------------------------------------------------------------------------
class TestEagerAdmission:
    def test_arrivals_are_queued_under_finite_horizon(self):
        """Every arrival is its own kernel event, so a scenario horizon
        that cuts the run mid-batch leaves later arrivals queued -- never
        stranded un-offered."""
        queue = make_queue((spec(name="only"),), max_batch_tokens=100)
        requests = tuple(request(i, 100, arrival=float(i)) for i in range(3))
        source = MultiTenantServingSource(
            requests, queue, lambda batch, now, index: 10.0
        )
        Scenario(name="horizon", sources=(source,), duration=5.0).run()
        assert source.num_batches == 1
        assert queue.queued_requests == 2


def _tiny_engine(policy="priority", preemption=True, dynamic=True):
    from repro.bench.harness import cluster_for
    from repro.config import MoEModelConfig
    from repro.serving.baseline import build_multitenant_serving

    tenants = (
        spec(name="chat", tenant_class=INTERACTIVE, n=6, seed=0),
        spec(name="bulk", tenant_class=BATCH, n=6, seed=1),
    )
    model = MoEModelConfig(
        name="mt-tiny", num_layers=2, d_model=256, d_ffn=1024, num_experts=8
    )
    return build_multitenant_serving(
        cluster_for(4),
        model,
        tenants,
        BatchingConfig(max_batch_tokens=512),
        num_moe_layers=1,
        seed=0,
        dynamic=dynamic,
        admission_policy=policy,
        preemption=preemption,
    )


# ---------------------------------------------------------------------------
# Engine validation + reporting
# ---------------------------------------------------------------------------
class TestEngineValidation:
    def test_admission_policy_validated(self):
        with pytest.raises(ConfigurationError):
            _tiny_engine(policy="lifo")

    def test_requests_require_tenants(self):
        from repro.bench.harness import cluster_for
        from repro.config import MoEModelConfig
        from repro.runtime.pipeline import build_engine

        engine = build_engine(
            cluster_for(4),
            MoEModelConfig(
                name="mt-val", num_layers=2, d_model=256, d_ffn=1024,
                num_experts=8,
            ),
            num_moe_layers=1,
            inference=True,
        )
        with pytest.raises(ConfigurationError):
            ServingEngine(
                engine, None, BatchingConfig(max_batch_tokens=512), SLO
            )

    def test_tenant_ids_must_be_in_range(self):
        from repro.bench.harness import cluster_for
        from repro.config import MoEModelConfig
        from repro.runtime.pipeline import build_engine

        engine = build_engine(
            cluster_for(4),
            MoEModelConfig(
                name="mt-range", num_layers=2, d_model=256, d_ffn=1024,
                num_experts=8,
            ),
            num_moe_layers=1,
            inference=True,
        )
        with pytest.raises(ConfigurationError):
            ServingEngine(
                engine,
                (request(0, 10, tenant=7),),
                BatchingConfig(max_batch_tokens=512),
                SLO,
                tenants=(spec(name="only"),),
            )

    def test_multitenant_run_reports_tenancy(self):
        report = _tiny_engine().run()
        assert report.tenancy is not None
        assert report.tenancy.names == ("chat", "bulk")
        assert report.tenancy.priorities == (10, 0)
        per_class = report.per_class_summary()
        assert set(per_class) == {"interactive", "batch"}
        assert 0.0 <= report.jain_fairness_index() <= 1.0
        mt = report.multitenant_summary()
        assert {"per_class", "per_tenant", "jain_fairness"} <= set(mt)

    def test_single_stream_report_has_no_tenancy(self):
        report = ServingReport(
            engine="x", records=(), rejected=(), slo=SLO, num_batches=0,
            sim_duration=0.0,
        )
        assert report.tenancy is None
        with pytest.raises(ConfigurationError):
            report.per_class_summary()


class TestFairnessIndex:
    def _report(self, records, rejected, weights=(1.0, 1.0)):
        n = len(weights)
        info = TenancyInfo(
            names=tuple(f"t{i}" for i in range(n)),
            class_names=("c",) * n,
            priorities=(0,) * n,
            weights=weights,
            slos=(SLO,) * n,
        )
        return ServingReport(
            engine="x", records=tuple(records), rejected=tuple(rejected),
            slo=SLO, num_batches=1, sim_duration=1.0, tenancy=info,
        )

    def _record(self, index, tenant):
        return RequestRecord(
            request=request(index, 10, tenant=tenant),
            start=0.0, queue_time=0.0, execute_time=0.1,
        )

    def test_equal_service_is_perfectly_fair(self):
        report = self._report(
            [self._record(0, 0), self._record(1, 1)], []
        )
        assert report.jain_fairness_index() == pytest.approx(1.0)

    def test_starvation_halves_the_index(self):
        # One tenant fully served, the other fully rejected: Jain's
        # index of (1, 0) is 0.5.
        report = self._report(
            [self._record(0, 0)], [request(1, 10, tenant=1)]
        )
        assert report.jain_fairness_index() == pytest.approx(0.5)

    def test_weights_normalize_service_ratios(self):
        # Tenant 0 (weight 2) served twice, tenant 1 (weight 1) served
        # once of two offered: ratios (2/2)/2 = 0.5 and (1/2)/1 = 0.5.
        report = self._report(
            [self._record(0, 0), self._record(1, 0), self._record(2, 1)],
            [request(3, 10, tenant=1)],
            weights=(2.0, 1.0),
        )
        assert report.jain_fairness_index() == pytest.approx(1.0)

    def test_no_offered_traffic_is_vacuously_fair(self):
        assert self._report([], []).jain_fairness_index() == 1.0


# ---------------------------------------------------------------------------
# Graceful degradation: shedding lower-priority queued work
# ---------------------------------------------------------------------------
def shed_queue(tenants, max_queue_tokens=100, shed=True):
    return PriorityAdmissionQueue(
        BatchingConfig(
            max_batch_tokens=100, max_queue_tokens=max_queue_tokens
        ),
        tenants,
        policy="priority",
        shed_low_priority=shed,
    )


class TestShedding:
    two_class = (
        spec(name="chat", tenant_class=INTERACTIVE),
        spec(name="batch", tenant_class=BATCH),
    )

    def test_requires_priority_policy(self):
        with pytest.raises(ConfigurationError):
            PriorityAdmissionQueue(
                BatchingConfig(max_batch_tokens=100),
                self.two_class,
                policy="fifo",
                shed_low_priority=True,
            )

    def test_off_by_default_preserves_rejection(self):
        queue = shed_queue(self.two_class, shed=False)
        assert queue.offer(request(0, 100, tenant=1))
        assert not queue.offer(request(1, 50, tenant=0))
        assert queue._rejected == 1
        assert queue.shed_requests == 0

    def test_sheds_newest_lower_priority_work_first(self):
        queue = shed_queue(self.two_class)
        assert queue.offer(request(0, 60, tenant=1))
        assert queue.offer(request(1, 40, tenant=1))
        # Interactive arrival needs 50 tokens of room: the newest batch
        # request (40 tokens) is not enough, so both batch entries shed.
        assert queue.offer(request(2, 50, tenant=0))
        assert queue.shed_requests == 2
        assert [r.index for r in queue.shed] == [1, 0]
        assert queue.shed_by_tenant(1) == 2
        assert queue.shed_by_tenant(0) == 0
        assert queue.queued_tokens == 50
        assert [r.index for r in queue.next_batch()] == [2]

    def test_partial_shed_keeps_oldest_batch_work(self):
        queue = shed_queue(self.two_class)
        assert queue.offer(request(0, 60, tenant=1))
        assert queue.offer(request(1, 40, tenant=1))
        # 20 tokens of room needed: shedding the newest batch request
        # alone suffices; the oldest keeps its place.
        assert queue.offer(request(2, 20, tenant=0))
        assert [r.index for r in queue.shed] == [1]
        assert queue.queued_tokens == 80
        assert queue._tenant_tokens[1] == 60

    def test_never_sheds_equal_or_higher_priority(self):
        queue = shed_queue(self.two_class)
        assert queue.offer(request(0, 100, tenant=0))
        # A batch arrival has no strictly-lower level to raid.
        assert not queue.offer(request(1, 30, tenant=1))
        # Another interactive arrival cannot shed its own class either.
        assert not queue.offer(request(2, 30, tenant=0))
        assert queue.shed_requests == 0
        assert queue._rejected == 2
        assert queue.queued_tokens == 100

    def test_hopeless_arrival_sheds_nothing(self):
        queue = shed_queue(self.two_class)
        assert queue.offer(request(0, 30, tenant=1))
        assert queue.offer(request(1, 60, tenant=0))
        # Freeing every batch token (30) still cannot fit 80 more:
        # the arrival bounces and no victim is evicted for nothing.
        assert not queue.offer(request(2, 80, tenant=0))
        assert queue.shed_requests == 0
        assert queue.queued_tokens == 90
        assert queue._tenant_tokens[1] == 30

    def test_shed_accounting_is_conserved(self):
        queue = shed_queue(self.two_class)
        offered = [
            request(0, 50, tenant=1),
            request(1, 50, tenant=1),
            request(2, 90, tenant=0),
        ]
        admitted = [r for r in offered if queue.offer(r)]
        dispatched = []
        while True:
            batch = queue.next_batch()
            if not batch:
                break
            dispatched.extend(batch)
        # Every offered request is exactly one of: dispatched, shed, or
        # rejected at the door.
        assert len(dispatched) + queue.shed_requests + (
            len(offered) - len(admitted)
        ) == len(offered)
        assert {r.index for r in dispatched} | {
            r.index for r in queue.shed
        } == {0, 1, 2}

    def test_per_class_summary_folds_shed_counts(self):
        info = TenancyInfo(
            names=("chat", "batch"),
            class_names=("interactive", "batch"),
            priorities=(10, 0),
            weights=(1.0, 1.0),
            slos=(SLO, SLOConfig(latency_target=5.0)),
            shed_requests=3,
            shed_by_tenant=(0, 3),
        )
        record = RequestRecord(
            request=request(0, 10, tenant=0),
            start=0.0, queue_time=0.0, execute_time=0.1,
        )
        report = ServingReport(
            engine="x", records=(record,),
            rejected=(request(1, 10, tenant=1),), slo=SLO, num_batches=1,
            sim_duration=1.0, tenancy=info,
        )
        per_class = report.per_class_summary()
        assert per_class["batch"]["requests_shed"] == 3
        assert per_class["interactive"]["requests_shed"] == 0
        assert report.multitenant_summary()["shed_requests"] == 3
