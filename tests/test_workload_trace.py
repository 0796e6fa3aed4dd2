"""Unit tests for the RoutingTrace container."""

import numpy as np
import pytest

from repro.exceptions import RoutingError
from repro.workload.trace import RoutingTrace


def make_trace(steps=3, experts=4, gpus=2, seed=0):
    rng = np.random.default_rng(seed)
    return RoutingTrace(rng.integers(0, 100, (steps, experts, gpus)))


class TestRoutingTrace:
    def test_shape_accessors(self):
        trace = make_trace()
        assert (trace.num_steps, trace.num_experts, trace.num_gpus) == (3, 4, 2)
        assert len(trace) == 3

    def test_step_access_and_iteration(self):
        trace = make_trace()
        frames = list(trace)
        assert len(frames) == 3
        assert np.array_equal(frames[1], trace.step(1))

    def test_step_out_of_range(self):
        with pytest.raises(RoutingError):
            make_trace().step(3)

    def test_expert_loads(self):
        trace = make_trace()
        assert trace.expert_loads(0).shape == (4,)
        assert trace.expert_loads().shape == (3, 4)
        assert trace.expert_loads(1).sum() == trace.step(1).sum()

    def test_tokens_per_step(self):
        trace = make_trace()
        assert np.array_equal(
            trace.tokens_per_step(),
            np.array([trace.step(t).sum() for t in range(3)]),
        )

    def test_slice(self):
        trace = make_trace(steps=5)
        sub = trace.slice(1, 4)
        assert sub.num_steps == 3
        assert np.array_equal(sub.step(0), trace.step(1))

    def test_slice_invalid(self):
        with pytest.raises(RoutingError):
            make_trace().slice(2, 1)

    def test_rejects_negative_counts(self):
        with pytest.raises(RoutingError):
            RoutingTrace(np.array([[[-1]]]))

    def test_rejects_non_integral(self):
        with pytest.raises(RoutingError):
            RoutingTrace(np.array([[[0.5]]]))

    def test_rejects_large_fractional_counts(self):
        """Integrality is exact: a fraction of a large count is not
        rounded away within a relative tolerance."""
        with pytest.raises(RoutingError, match="integral"):
            RoutingTrace(np.array([[[1e6 + 0.5, 3.25e5 + 0.25]]]))
        with pytest.raises(RoutingError, match="integral"):
            RoutingTrace.adopt(np.array([[[2.5e5 + 0.5, 7.0]]]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e30, 2.0**63])
    def test_rejects_counts_int64_cannot_hold(self, bad):
        """A non-finite or out-of-range float must not be cast into a
        wrapped (often negative) int64 count."""
        with pytest.raises(RoutingError):
            RoutingTrace(np.array([[[bad, 1.0]]]))

    def test_rejects_unsigned_counts_above_int64(self):
        with pytest.raises(RoutingError):
            RoutingTrace(np.array([[[2**63]]], dtype=np.uint64))

    @pytest.mark.parametrize(
        "frames",
        [
            [[[2**31, 0]]],
            [[[2**31 - 1, 1]]],
            [[[1, 1]], [[1, 2**31 - 1]]],
        ],
        ids=["count", "expert_total", "later_step_total"],
    )
    def test_rejects_counts_int32_cannot_hold(self, frames):
        """A count, or one step's per-expert total, of 2**31 or more is
        refused by name instead of wrapping in the int32 trace."""
        frames = np.array(frames, dtype=np.int64)
        with pytest.raises(RoutingError, match=r"2\*\*31"):
            RoutingTrace(frames)
        with pytest.raises(RoutingError, match=r"2\*\*31"):
            RoutingTrace.adopt(frames)

    def test_accepts_totals_just_below_the_int32_limit(self):
        trace = RoutingTrace(np.array([[[2**31 - 2, 1], [0, 5]]]))
        assert trace.expert_loads(0).tolist() == [2**31 - 1, 5]
        assert trace.expert_loads(0).dtype == np.int64

    def test_constructor_copies_caller_array(self):
        frames = np.ones((2, 3, 4), dtype=np.int64)
        trace = RoutingTrace(frames)
        frames[0, 0, 0] = 7
        assert trace.step(0)[0, 0] == 1
        assert frames.flags.writeable

    def test_adopt_takes_the_buffer_without_a_copy(self):
        buffer = np.ones((2, 3, 4), dtype=np.int32)
        trace = RoutingTrace.adopt(buffer)
        assert trace == RoutingTrace(np.ones((2, 3, 4), dtype=np.int32))
        assert np.shares_memory(trace.step(0), buffer)
        assert not buffer.flags.writeable

    def test_adopt_validates_like_the_constructor(self):
        with pytest.raises(RoutingError):
            RoutingTrace.adopt(-np.ones((1, 2, 3), dtype=np.int64))
        with pytest.raises(RoutingError):
            RoutingTrace.adopt(np.ones((2, 3), dtype=np.int64))
        with pytest.raises(RoutingError):
            RoutingTrace.adopt(np.array([[[np.inf]]]))

    def test_accepts_integral_floats(self):
        trace = RoutingTrace(np.array([[[2.0]]]))
        assert trace.step(0)[0, 0] == 2

    def test_immutability(self):
        trace = make_trace()
        with pytest.raises(ValueError):
            trace.step(0)[0, 0] = 5

    def test_roundtrip_save_load(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "trace.npz"
        trace.save(path)
        assert RoutingTrace.load(path) == trace

    def test_roundtrip_preserves_shape_dtype_and_values(self, tmp_path):
        trace = make_trace(steps=5, experts=6, gpus=3, seed=7)
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = RoutingTrace.load(path)
        assert (loaded.num_steps, loaded.num_experts, loaded.num_gpus) == (
            5, 6, 3,
        )
        for t in range(5):
            frame = loaded.step(t)
            assert frame.dtype == np.int32
            assert np.array_equal(frame, trace.step(t))

    def test_roundtrip_of_integral_float_input(self, tmp_path):
        trace = RoutingTrace(np.array([[[2.0, 3.0], [0.0, 1.0]]]))
        path = tmp_path / "float.npz"
        trace.save(path)
        loaded = RoutingTrace.load(path)
        assert loaded == trace
        assert loaded.step(0).dtype == np.int32

    def test_loads_an_int64_file_as_int32(self, tmp_path):
        """A trace file written with int64 counts (as earlier versions
        saved every trace) loads as int32 with equal values."""
        counts = np.random.default_rng(3).integers(0, 1000, (4, 6, 3))
        assert counts.dtype == np.int64
        path = tmp_path / "int64.npz"
        np.savez_compressed(path, assignments=counts)
        loaded = RoutingTrace.load(path)
        assert loaded.step(0).dtype == np.int32
        assert loaded == RoutingTrace(counts)
        for t in range(4):
            assert np.array_equal(loaded.step(t), counts[t])

    def test_loaded_trace_is_immutable(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = RoutingTrace.load(path)
        with pytest.raises(ValueError):
            loaded.step(0)[0, 0] = 5

    def test_slice_then_roundtrip(self, tmp_path):
        trace = make_trace(steps=6)
        window = trace.slice(2, 5)
        path = tmp_path / "window.npz"
        window.save(path)
        loaded = RoutingTrace.load(path)
        assert loaded == window
        assert np.array_equal(loaded.step(0), trace.step(2))

    def test_load_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, foo=np.zeros(3))
        with pytest.raises(RoutingError):
            RoutingTrace.load(path)

    def test_load_rejects_multilayer_file(self, tmp_path):
        from repro.workload.trace import MultiLayerTrace

        rng = np.random.default_rng(0)
        multi = MultiLayerTrace(rng.integers(0, 10, (2, 3, 4, 2)))
        path = tmp_path / "multi.npz"
        multi.save(path)
        with pytest.raises(RoutingError):
            RoutingTrace.load(path)

    def test_equality(self):
        assert make_trace(seed=1) == make_trace(seed=1)
        assert make_trace(seed=1) != make_trace(seed=2)
