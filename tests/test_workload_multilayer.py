"""Tests for MultiLayerTrace and the per-layer trace generator."""

import numpy as np
import pytest

from repro.config import WorkloadConfig
from repro.exceptions import RoutingError
from repro.workload.synthetic import (
    DRAW_BLOCK_GPUS,
    LAYER_SEED_STRIDE,
    DriftingRoutingGenerator,
    make_multilayer_trace,
)
from repro.workload.trace import MultiLayerTrace, RoutingTrace

from trace_helpers import make_trace


def small_config(**overrides) -> WorkloadConfig:
    base = dict(tokens_per_step=10_000, num_steps=5, seed=4)
    base.update(overrides)
    return WorkloadConfig(**base)


class TestContainer:
    def test_shapes(self):
        trace = make_multilayer_trace(3, 8, 4, small_config())
        assert trace.num_layers == 3
        assert trace.num_steps == 5
        assert trace.num_experts == 8
        assert trace.num_gpus == 4
        assert len(trace) == 5

    def test_step_stacks_layers(self):
        trace = make_multilayer_trace(3, 8, 4, small_config())
        step = trace.step(0)
        assert step.shape == (3, 8, 4)
        for layer in range(3):
            assert np.array_equal(step[layer], trace.layer(layer).step(0))

    def test_layer_returns_routing_trace(self):
        trace = make_multilayer_trace(2, 8, 4, small_config())
        layer = trace.layer(1)
        assert isinstance(layer, RoutingTrace)
        assert layer.num_steps == trace.num_steps

    def test_from_layers_roundtrip(self):
        layers = [
            make_trace(8, 4, small_config(seed=seed)) for seed in (1, 2)
        ]
        stacked = MultiLayerTrace(
            np.stack([np.stack(list(layer)) for layer in layers])
        )
        assert stacked.layer(0) == layers[0]
        assert stacked.layer(1) == layers[1]

    def test_slice(self):
        trace = make_multilayer_trace(2, 8, 4, small_config())
        sliced = trace.slice(1, 4)
        assert sliced.num_steps == 3
        assert np.array_equal(sliced.step(0), trace.step(1))

    def test_tokens_per_step(self):
        trace = make_multilayer_trace(2, 8, 4, small_config())
        totals = trace.tokens_per_step()
        assert totals.shape == (5,)
        assert (totals == 2 * 10_000).all()

    def test_rejects_bad_shapes(self):
        with pytest.raises(RoutingError):
            MultiLayerTrace(np.zeros((2, 3, 4), dtype=np.int64))
        with pytest.raises(RoutingError):
            MultiLayerTrace(-np.ones((1, 2, 3, 4), dtype=np.int64))

    def test_rejects_large_fractional_counts(self):
        frames = np.ones((2, 1, 2, 2))
        frames[1, 0, 1] = [1e6 + 0.5, 3.25e5 + 0.25]
        with pytest.raises(RoutingError, match="integral"):
            MultiLayerTrace(frames)
        with pytest.raises(RoutingError, match="integral"):
            MultiLayerTrace.adopt(frames)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e30, 2.0**63])
    def test_rejects_counts_int64_cannot_hold(self, bad):
        frames = np.ones((2, 1, 2, 2))
        frames[1, 0, 1, 0] = bad
        with pytest.raises(RoutingError):
            MultiLayerTrace(frames)
        with pytest.raises(RoutingError):
            MultiLayerTrace.adopt(frames)

    def test_rejects_counts_int32_cannot_hold(self):
        """Counts, and each step's per-expert total, stay below 2**31 in
        every layer."""
        frames = np.ones((2, 1, 2, 2), dtype=np.int64)
        frames[1, 0, 1] = [2**31 - 1, 1]
        with pytest.raises(RoutingError, match=r"2\*\*31"):
            MultiLayerTrace(frames)
        with pytest.raises(RoutingError, match=r"2\*\*31"):
            MultiLayerTrace.adopt(frames)

    def test_adopt_takes_the_buffer_without_a_copy(self):
        buffer = np.ones((2, 3, 4, 2), dtype=np.int32)
        trace = MultiLayerTrace.adopt(buffer)
        assert np.shares_memory(trace.step(0), buffer)
        assert not buffer.flags.writeable

    def test_out_of_range_access(self):
        trace = make_multilayer_trace(2, 8, 4, small_config())
        with pytest.raises(RoutingError):
            trace.step(5)
        with pytest.raises(RoutingError):
            trace.layer(2)

    def test_save_load_roundtrip(self, tmp_path):
        trace = make_multilayer_trace(2, 8, 4, small_config())
        path = tmp_path / "trace.npz"
        trace.save(path)
        assert MultiLayerTrace.load(path) == trace

    def test_roundtrip_preserves_every_layer_exactly(self, tmp_path):
        trace = make_multilayer_trace(3, 8, 4, small_config(seed=9))
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = MultiLayerTrace.load(path)
        assert (
            loaded.num_layers, loaded.num_steps,
            loaded.num_experts, loaded.num_gpus,
        ) == (3, trace.num_steps, 8, 4)
        for layer in range(3):
            assert loaded.layer(layer) == trace.layer(layer)
        for t in range(trace.num_steps):
            frame = loaded.step(t)
            assert frame.dtype == np.int32
            assert np.array_equal(frame, trace.step(t))

    def test_loads_an_int64_file_as_int32(self, tmp_path):
        trace = make_multilayer_trace(2, 8, 4, small_config(seed=3))
        counts = np.stack(list(trace), axis=1).astype(np.int64)
        path = tmp_path / "int64.npz"
        np.savez_compressed(path, layer_assignments=counts)
        loaded = MultiLayerTrace.load(path)
        assert loaded.step(0).dtype == np.int32
        assert loaded == trace

    def test_loaded_trace_is_immutable(self, tmp_path):
        trace = make_multilayer_trace(2, 8, 4, small_config())
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = MultiLayerTrace.load(path)
        with pytest.raises(ValueError):
            loaded.step(0)[0, 0, 0] = 5

    def test_slice_then_roundtrip(self, tmp_path):
        trace = make_multilayer_trace(2, 8, 4, small_config())
        window = trace.slice(1, 3)
        path = tmp_path / "window.npz"
        window.save(path)
        loaded = MultiLayerTrace.load(path)
        assert loaded == window
        assert np.array_equal(loaded.step(0), trace.step(1))

    def test_load_rejects_single_layer_file(self, tmp_path):
        single = make_trace(8, 4, small_config())
        path = tmp_path / "single.npz"
        single.save(path)
        with pytest.raises(RoutingError):
            MultiLayerTrace.load(path)


class TestGenerator:
    def test_deterministic(self):
        a = make_multilayer_trace(3, 8, 4, small_config())
        b = make_multilayer_trace(3, 8, 4, small_config())
        assert a == b

    def test_layers_have_distinct_hot_experts(self):
        trace = make_multilayer_trace(
            4, 16, 4, small_config(num_steps=10), skew=1.5
        )
        hottest = [
            int(np.argmax(trace.layer(l).expert_loads().sum(axis=0)))
            for l in range(4)
        ]
        # Popularity rankings are permuted independently per layer; with
        # 16 experts, four layers sharing one hottest expert would mean
        # the permutation seeding is broken.
        assert len(set(hottest)) >= 2

    def test_layer_zero_matches_single_layer_generator(self):
        config = small_config()
        multi = make_multilayer_trace(2, 8, 4, config)
        single = make_trace(8, 4, config)
        assert multi.layer(0) == single

    def test_every_layer_matches_its_single_layer_generator(self):
        """Layer ``l`` is the stream of a single-layer generator seeded
        ``seed + l * LAYER_SEED_STRIDE``, across a partial draw block."""
        config = small_config(num_steps=3)
        gpus = DRAW_BLOCK_GPUS + 5
        multi = make_multilayer_trace(3, 8, gpus, config)
        for layer in range(3):
            generator = DriftingRoutingGenerator(
                8, gpus,
                config.replace(seed=config.seed + layer * LAYER_SEED_STRIDE),
            )
            for t in range(config.num_steps):
                np.testing.assert_array_equal(
                    multi.layer(layer).step(t), generator.next_step()
                )

    def test_rejects_bad_layer_count(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            make_multilayer_trace(0, 8, 4, small_config())
