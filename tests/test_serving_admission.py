"""Single-stream admission: FIFO micro-batching and token-depth
backpressure of the one-tenant :class:`PriorityAdmissionQueue`."""

import dataclasses

import pytest

from repro.exceptions import ConfigurationError
from repro.serving.admission import BatchingConfig, PriorityAdmissionQueue
from repro.serving.engine import single_stream_tenant
from repro.serving.requests import Request
from repro.serving.slo import SLOConfig


def request(index, tokens, arrival=0.0, topic=0):
    return Request(index=index, arrival=arrival, tokens=tokens, topic=topic)


def single_stream_queue(config):
    """The queue a server built without tenants admits through."""
    return PriorityAdmissionQueue(
        config, (single_stream_tenant(SLOConfig(latency_target=1.0)),)
    )


class TestBatchingConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BatchingConfig(max_batch_tokens=0)
        with pytest.raises(ConfigurationError):
            BatchingConfig(max_queue_tokens=0)

    def test_replace(self):
        config = BatchingConfig(max_batch_tokens=100)
        changed = dataclasses.replace(config, max_queue_tokens=500)
        assert changed.max_batch_tokens == 100


class TestBatching:
    def test_fifo_order_and_token_budget(self):
        queue = single_stream_queue(BatchingConfig(max_batch_tokens=100))
        for i, tokens in enumerate((40, 40, 40, 10)):
            assert queue.offer(request(i, tokens))
        batch = queue.next_batch()
        assert [r.index for r in batch] == [0, 1]  # 40+40, third would spill
        assert queue.queued_tokens == 50
        assert [r.index for r in queue.next_batch()] == [2, 3]
        assert queue.next_batch() == ()
        assert queue.queued_tokens == 0

    def test_oversized_request_forms_its_own_batch(self):
        queue = single_stream_queue(BatchingConfig(max_batch_tokens=100))
        assert queue.offer(request(0, 500))
        assert queue.offer(request(1, 10))
        batch = queue.next_batch()
        assert [r.index for r in batch] == [0]
        assert [r.index for r in queue.next_batch()] == [1]

    def test_token_accounting(self):
        queue = single_stream_queue(BatchingConfig(max_batch_tokens=64))
        queue.offer(request(0, 30))
        queue.offer(request(1, 20))
        assert queue.queued_tokens == 50
        assert queue.queued_requests == 2


class TestBackpressure:
    def test_rejects_beyond_queue_limit(self):
        queue = single_stream_queue(
            BatchingConfig(max_batch_tokens=100, max_queue_tokens=100)
        )
        assert queue.offer(request(0, 60))
        assert queue.offer(request(1, 40))
        assert not queue.offer(request(2, 10))  # 110 > 100
        assert queue._rejected == 1
        assert queue.queued_tokens == 100

    def test_empty_queue_always_admits(self):
        queue = single_stream_queue(
            BatchingConfig(max_batch_tokens=100, max_queue_tokens=50)
        )
        assert queue.offer(request(0, 500))  # oversized but queue empty
        assert not queue.offer(request(1, 1))

    def test_unbounded_by_default(self):
        queue = single_stream_queue(BatchingConfig(max_batch_tokens=10))
        for i in range(100):
            assert queue.offer(request(i, 1000))
        assert queue._rejected == 0
