"""The serving engine: latency accounting, determinism, SLO machinery."""

from collections import deque

import numpy as np
import pytest

from repro.bench.harness import cluster_for
from repro.config import FaultConfig, MoEModelConfig
from repro.cluster.events import ElasticitySchedule
from repro.exceptions import ConfigurationError
from repro.serving import (
    BatchingConfig,
    Request,
    RequestStream,
    RequestStreamConfig,
    SLOConfig,
    ServingReport,
    TopicRoutingModel,
    build_flexmoe_serving,
)
from repro.serving.slo import LatencyWindow, RequestRecord


def small_model(num_moe_layers=2, num_experts=8):
    return MoEModelConfig(
        name="serving-test",
        num_layers=2 * num_moe_layers,
        d_model=256,
        d_ffn=1024,
        num_experts=num_experts,
    )


def small_stream(num_requests=60, seed=0, **overrides):
    base = dict(
        arrival="bursty",
        rate_rps=20_000.0,
        num_requests=num_requests,
        mean_tokens=256,
        max_tokens=2048,
        num_topics=3,
        topic_drift=0.4,
        seed=seed,
    )
    base.update(overrides)
    return RequestStream(RequestStreamConfig(**base)).generate()


def build_pair(requests, seed=0, faults=None, num_moe_layers=2, num_experts=8):
    cluster = cluster_for(4)
    model = small_model(num_moe_layers, num_experts)
    batching = BatchingConfig(max_batch_tokens=2048, max_queue_tokens=32_768)
    slo = SLOConfig(latency_target=0.01, queue_limit_tokens=4096)
    elasticity = (
        ElasticitySchedule.from_fault_config(faults, 4)
        if faults is not None
        else None
    )
    kwargs = dict(
        num_moe_layers=num_moe_layers, elasticity=elasticity, seed=seed
    )
    flex = build_flexmoe_serving(
        cluster, model, requests, batching, slo, **kwargs
    )
    static = build_flexmoe_serving(
        cluster, model, requests, batching, slo, dynamic=False, **kwargs
    )
    return flex, static


def topic_profile(routing, layer, topic):
    """Expert distribution of a one-request batch of ``topic``."""
    return routing.batch_probs_arrays(layer, np.ones(1), np.array([topic]))


class TestTopicRoutingModel:
    def test_profiles_are_distributions(self):
        routing = TopicRoutingModel(2, 8, 3, seed=0)
        for layer in range(2):
            for topic in range(3):
                probs = topic_profile(routing, layer, topic)
                assert probs.shape == (8,)
                assert probs.sum() == pytest.approx(1.0)
                assert (probs > 0).all()

    def test_layers_permute_independently(self):
        routing = TopicRoutingModel(2, 16, 1, skew=1.3, seed=0)
        a = topic_profile(routing, 0, 0)
        b = topic_profile(routing, 1, 0)
        assert sorted(a) == pytest.approx(sorted(b))
        assert not np.allclose(a, b)

    def test_batch_probs_token_weighted(self):
        routing = TopicRoutingModel(1, 8, 2, seed=0)
        mixed = routing.batch_probs_arrays(
            0, np.array([900.0, 100.0]), np.array([0, 1])
        )
        expected = (
            0.9 * topic_profile(routing, 0, 0)
            + 0.1 * topic_profile(routing, 0, 1)
        )
        assert mixed == pytest.approx(expected)


class TestLatencyAccounting:
    """Acceptance: per-request latency = queue wait + execute time."""

    def test_records_decompose_latency(self):
        flex, _ = build_pair(small_stream())
        report = flex.run()
        assert report.records
        for record in report.records:
            assert record.queue_time >= 0
            assert record.execute_time > 0
            assert record.latency == pytest.approx(
                record.queue_time + record.execute_time
            )
            assert record.start >= record.request.arrival
            assert record.queue_time == pytest.approx(
                record.start - record.request.arrival
            )

    def test_batch_mates_share_execute_time(self):
        flex, _ = build_pair(small_stream())
        report = flex.run()
        by_start = {}
        for record in report.records:
            by_start.setdefault(record.start, set()).add(record.execute_time)
        assert all(len(times) == 1 for times in by_start.values())

    def test_every_offered_request_is_accounted(self):
        requests = small_stream(num_requests=80)
        flex, _ = build_pair(requests)
        report = flex.run()
        served = {r.request.index for r in report.records}
        rejected = {r.index for r in report.rejected}
        assert served | rejected == {r.index for r in requests}
        assert not served & rejected
        assert report.offered_tokens == sum(r.tokens for r in requests)

    def test_clock_monotone_across_batches(self):
        flex, _ = build_pair(small_stream())
        report = flex.run()
        starts = [r.start for r in report.records]
        assert starts == sorted(starts)
        assert report.sim_duration >= max(
            r.start + r.execute_time for r in report.records
        ) - 1e-12

    def test_no_cold_start_spike(self):
        """The warm-up pre-pays communicator creation: the first batch's
        execute time stays within an order of magnitude of the median."""
        flex, _ = build_pair(small_stream())
        report = flex.run()
        execs = report.execute_times
        assert execs[0] < 10 * np.median(execs)


class TestDeterminismAndBaseline:
    def test_same_seed_same_report(self):
        requests = small_stream()
        a = build_pair(requests, seed=3)[0].run()
        b = build_pair(requests, seed=3)[0].run()
        assert a.num_batches == b.num_batches
        assert np.allclose(a.latencies, b.latencies)
        assert a.sim_duration == pytest.approx(b.sim_duration)

    def test_static_baseline_never_rebalances(self):
        requests = small_stream()
        flex, static = build_pair(requests)
        static_report = static.run()
        assert static_report.engine == "StaticServing"
        assert static_report.placement_actions == 0
        placements = static.engine.placements()
        balanced = placements[0].counts
        assert all(np.array_equal(p.counts, balanced) for p in placements)

    def test_engine_names(self):
        requests = small_stream(num_requests=20)
        flex, static = build_pair(requests)
        assert flex.run().engine == "FlexMoE-serving"
        assert static.run().engine == "StaticServing"


class TestBatchAssignments:
    @pytest.mark.parametrize("tokens", [[1, 1], [300, 7]])
    def test_one_draw_matches_a_draw_per_gpu(self, tokens):
        """One multinomial call per layer samples exactly what one call per
        GPU shard in GPU order would -- 0-token shards (2 tokens over 4
        GPUs) draw nothing -- and leaves the RNG where that loop would."""
        engine, _ = build_pair(small_stream(num_requests=4))
        tokens, topics = np.array(tokens), np.array([0, 1])
        twin = np.random.default_rng()
        twin.bit_generator.state = engine._rng.bit_generator.state
        got = engine._batch_assignments(tokens, topics)
        per_gpu, remainder = divmod(int(tokens.sum()), 4)
        expected = np.zeros_like(got)
        for layer in range(got.shape[0]):
            probs = engine._routing.batch_probs_arrays(layer, tokens, topics)
            for gpu in range(4):
                count = per_gpu + (gpu < remainder)
                if count:
                    expected[layer, :, gpu] = twin.multinomial(count, probs)
        np.testing.assert_array_equal(got, expected)
        assert twin.bit_generator.state == engine._rng.bit_generator.state


class TestElasticityComposition:
    def test_serving_continues_through_failure_and_recovery(self):
        requests = small_stream(num_requests=120, rate_rps=40_000.0)
        faults = FaultConfig(
            num_failures=1, failure_step=3, recovery_steps=6, seed=0
        )
        flex, static = build_pair(requests, faults=faults)
        report = flex.run()
        # Every request was either served or shed by backpressure; the
        # stream outlived the failure.
        assert len(report.records) + len(report.rejected) == 120
        kinds = [ev.kind for _, ev in flex.engine.event_log]
        assert "fail" in kinds
        # The pool healed: all devices live again at the end.
        assert flex.engine.cluster_state.num_live == 4
        # Static serving also survives (forced eviction still happens).
        static_report = static.run()
        assert len(static_report.records) + len(static_report.rejected) == 120

    def test_engine_rejects_mismatched_routing_model(self):
        requests = small_stream(num_requests=10)
        cluster = cluster_for(4)
        model = small_model(num_moe_layers=2)
        routing = TopicRoutingModel(3, 8, 3, seed=0)  # wrong layer count
        with pytest.raises(ConfigurationError):
            build_flexmoe_serving(
                cluster, model, requests,
                BatchingConfig(max_batch_tokens=1024),
                SLOConfig(latency_target=0.01),
                num_moe_layers=2, routing=routing,
            )


class TestSLOPrimitives:
    def test_latency_window_p99(self):
        window = LatencyWindow(window=4)
        assert window.p99() is None
        window.observe_batch(np.array([0.1, 0.2, 0.3]))
        window.observe_batch(np.array([0.4, 0.5]))
        # Window keeps the last four: 0.2..0.5.
        assert window.p99() == pytest.approx(
            np.percentile([0.2, 0.3, 0.4, 0.5], 99)
        )

    def test_slo_config_defaults_and_validation(self):
        slo = SLOConfig(latency_target=1.0)
        assert slo.effective_trigger_p99 == pytest.approx(0.6)
        assert slo.replace(trigger_p99=0.2).effective_trigger_p99 == 0.2
        with pytest.raises(ConfigurationError):
            SLOConfig(latency_target=0.0)
        with pytest.raises(ConfigurationError):
            SLOConfig(latency_target=1.0, window=0)

    def test_report_percentiles_and_goodput(self):
        slo = SLOConfig(latency_target=0.5)
        requests = [
            Request(index=i, arrival=0.0, tokens=100, topic=0)
            for i in range(4)
        ]
        records = tuple(
            RequestRecord(
                request=requests[i], start=0.0,
                queue_time=q, execute_time=0.1,
            )
            for i, q in enumerate((0.0, 0.1, 0.2, 0.9))
        )
        report = ServingReport(
            engine="test", records=records,
            rejected=(Request(index=9, arrival=0.0, tokens=100, topic=0),),
            slo=slo, num_batches=4, sim_duration=2.0,
        )
        assert report.p50 == pytest.approx(np.percentile(report.latencies, 50))
        # Three of four served within the 0.5 s SLO; the rejected request
        # counts as a miss.
        assert report.slo_attainment == pytest.approx(3 / 5)
        assert report.goodput_tokens_per_s == pytest.approx(300 / 2.0)
        assert report.offered_tokens == 500
        summary = report.summary()
        assert summary["requests_rejected"] == 1.0
        assert summary["p99_latency_s"] == pytest.approx(report.p99)


def _sequential_p99(sequential):
    """p99 of a plain last-``window`` deque (the reference window)."""
    return float(np.percentile(list(sequential), 99.0)) if sequential else None


class TestLatencyWindowBatchIngestion:
    def test_observe_batch_equals_sequential_observe(self):
        rng = np.random.default_rng(0)
        for window in (1, 3, 64):
            for sizes in ((5,), (2, 7, 1), (100,), (64,), (63, 2)):
                sequential = deque(maxlen=window)
                batched = LatencyWindow(window)
                for size in sizes:
                    chunk = rng.exponential(size=size)
                    sequential.extend(float(value) for value in chunk)
                    batched.observe_batch(chunk)
                    assert len(batched) == len(sequential)
                    assert batched.p99() == _sequential_p99(sequential)

    def test_p99_is_bit_identical_to_np_percentile(self):
        rng = np.random.default_rng(1)
        for count in (1, 2, 5, 63, 64, 200):
            window = LatencyWindow(64)
            values = rng.exponential(size=count)
            window.observe_batch(values)
            live = values[-64:]
            assert window.p99() == float(np.percentile(live, 99.0))


from hypothesis import given, settings, strategies as st


@settings(max_examples=60, deadline=None)
@given(
    window=st.integers(1, 16),
    chunks=st.lists(
        st.lists(
            st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False),
            min_size=0,
            max_size=40,
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_observe_batch_property(window, chunks):
    """Property: batched ingestion is indistinguishable from appending
    each element to a last-``window`` deque, for any chunking, including
    chunks larger than the window (full-overwrite path) and
    wrap-arounds."""
    sequential = deque(maxlen=window)
    batched = LatencyWindow(window)
    for chunk in chunks:
        sequential.extend(chunk)
        batched.observe_batch(np.array(chunk, dtype=float))
        assert len(batched) == len(sequential)
        assert batched.p99() == _sequential_p99(sequential)


class TestAdmissionQueueMeta:
    def _requests(self, specs):
        return [
            Request(index=i, arrival=a, tokens=t, topic=p)
            for i, (a, t, p) in enumerate(specs)
        ]

    def _queue(self, config):
        from repro.serving.admission import PriorityAdmissionQueue
        from repro.serving.engine import single_stream_tenant

        return PriorityAdmissionQueue(
            config, (single_stream_tenant(SLOConfig(latency_target=1.0)),)
        )

    def test_meta_columns_mirror_popped_batch(self):
        queue = self._queue(BatchingConfig(max_batch_tokens=300))
        requests = self._requests(
            [(0.0, 100, 1), (0.5, 150, 2), (1.0, 200, 0), (1.5, 50, 3)]
        )
        for request in requests:
            assert queue.offer(request)
        batch = queue.next_batch()
        assert batch == tuple(requests[:2])
        np.testing.assert_array_equal(
            queue.last_batch_arrivals, [0.0, 0.5]
        )
        np.testing.assert_array_equal(queue.last_batch_tokens, [100, 150])
        np.testing.assert_array_equal(queue.last_batch_topics, [1, 2])
        # Second pop: the columns advance with the queue.
        batch = queue.next_batch()
        assert batch == tuple(requests[2:])
        np.testing.assert_array_equal(queue.last_batch_tokens, [200, 50])

    def test_rejected_requests_never_enter_meta(self):
        queue = self._queue(
            BatchingConfig(max_batch_tokens=100, max_queue_tokens=150)
        )
        admitted = self._requests([(0.0, 100, 0)])[0]
        rejected = Request(index=1, arrival=0.1, tokens=100, topic=1)
        assert queue.offer(admitted)
        assert not queue.offer(rejected)
        queue.next_batch()
        np.testing.assert_array_equal(queue.last_batch_tokens, [100])
        np.testing.assert_array_equal(queue.last_batch_topics, [0])
