"""Unit tests for the synthetic routing generators (Figure 3 calibration)."""

import copy
import tracemalloc

import numpy as np
import pytest

from repro.config import WorkloadConfig
from repro.exceptions import ConfigurationError
from repro.workload.synthetic import (
    DRAW_BLOCK_GPUS,
    DriftingRoutingGenerator,
    expert_load_cdf,
    make_multilayer_trace,
    stationary_skewed_probs,
)

from trace_helpers import make_trace, top_share


class TestStationaryProbs:
    def test_sums_to_one(self):
        assert stationary_skewed_probs(64, 1.3).sum() == pytest.approx(1.0)

    def test_zero_skew_uniform(self):
        probs = stationary_skewed_probs(8, 0.0)
        assert np.allclose(probs, 1 / 8)

    def test_paper_calibration_top10_of_64(self):
        """Figure 3a: top-10 of 64 experts receive ~75% of tokens."""
        probs = stationary_skewed_probs(64, 1.3)
        assert 0.70 <= top_share(probs, 10) <= 0.80

    def test_permutation_preserves_distribution(self):
        rng = np.random.default_rng(0)
        probs = stationary_skewed_probs(16, 1.0, rng)
        expected = stationary_skewed_probs(16, 1.0)
        assert np.allclose(np.sort(probs), np.sort(expected))

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigurationError):
            stationary_skewed_probs(0, 1.0)
        with pytest.raises(ConfigurationError):
            stationary_skewed_probs(4, -1.0)


class TestCdfHelpers:
    def test_cdf_monotone_and_ends_at_one(self):
        cdf = expert_load_cdf(np.array([5, 1, 3, 1]))
        assert (np.diff(cdf) >= 0).all()
        assert cdf[-1] == pytest.approx(1.0)

    def test_cdf_rejects_empty_load(self):
        with pytest.raises(ConfigurationError):
            expert_load_cdf(np.zeros(4))


class TestDriftingGenerator:
    def make(self, **overrides):
        defaults = dict(tokens_per_step=10_000, num_steps=20, seed=5)
        defaults.update(overrides)
        cfg = WorkloadConfig(**defaults)
        return DriftingRoutingGenerator(16, 4, cfg)

    def test_step_conserves_tokens(self):
        gen = self.make()
        frame = gen.next_step()
        assert frame.shape == (16, 4)
        assert frame.sum() == 10_000

    def test_uneven_token_count_distributed(self):
        cfg = WorkloadConfig(tokens_per_step=10_001, num_steps=5, seed=0)
        gen = DriftingRoutingGenerator(8, 4, cfg)
        assert gen.next_step().sum() == 10_001

    @pytest.mark.parametrize(
        "tokens, bias, gpus",
        [
            (10_001, 0.0, 4),
            (10_001, 0.3, 4),
            (3, 0.0, 4),
            (3, 0.3, 4),
            (100_003, 0.3, DRAW_BLOCK_GPUS + 5),
        ],
    )
    def test_one_draw_matches_a_draw_per_gpu(self, tokens, bias, gpus):
        """One multinomial call per block of GPUs samples exactly what one
        call per GPU shard in GPU order would -- a 0-token shard included
        -- and leaves the RNG where that loop would."""
        gen = DriftingRoutingGenerator(
            16, gpus,
            WorkloadConfig(tokens_per_step=tokens, num_steps=5, seed=2),
            locality_bias=bias,
        )
        twin = copy.deepcopy(gen)
        frame = gen.next_step()
        twin._advance_logits()
        probs = twin.current_probs()
        per_gpu, remainder = divmod(tokens, gpus)
        expected = np.zeros((16, gpus), dtype=np.int64)
        for gpu in range(gpus):
            shard = probs
            if bias:
                local = np.zeros(16)
                prefs = twin._gpu_preferences[gpu]
                local[prefs] = 1.0 / len(prefs)
                mixed = (1 - bias) * probs + bias * local
                shard = mixed / mixed.sum()
            expected[:, gpu] = twin._rng.multinomial(
                per_gpu + (gpu < remainder), shard
            )
        np.testing.assert_array_equal(frame, expected)
        assert frame.flags.c_contiguous
        assert gen._rng.bit_generator.state == twin._rng.bit_generator.state

    @pytest.mark.parametrize(
        "gpus, bias",
        [(4, 0.3), (DRAW_BLOCK_GPUS + 5, 0.0), (DRAW_BLOCK_GPUS + 5, 0.3)],
    )
    def test_generate_matches_successive_next_steps(self, gpus, bias):
        """Drawing a trace in place samples exactly the ``next_step()``
        stream of a generator with the same seed."""

        def generator():
            return DriftingRoutingGenerator(
                16, gpus,
                WorkloadConfig(
                    tokens_per_step=100_003, num_steps=4, seed=3,
                    spike_period=2,
                ),
                locality_bias=bias,
            )

        trace = generator().generate(4)
        stream = generator()
        for t in range(4):
            np.testing.assert_array_equal(trace.step(t), stream.next_step())

    def test_generate_trace_shape(self):
        trace = self.make().generate()
        assert trace.num_steps == 20
        assert trace.num_experts == 16
        assert trace.num_gpus == 4

    def test_deterministic_given_seed(self):
        a = self.make(seed=9).generate(5)
        b = self.make(seed=9).generate(5)
        assert a == b

    def test_smoothness_between_consecutive_steps(self):
        """Figure 3b: loads change smoothly, not discontinuously."""
        trace = self.make(tokens_per_step=100_000, drift=0.05).generate(30)
        loads = trace.expert_loads().astype(float)
        shares = loads / loads.sum(axis=1, keepdims=True)
        step_changes = np.abs(np.diff(shares, axis=0)).sum(axis=1)
        assert step_changes.max() < 0.25

    def test_skew_annealing_reduces_concentration(self):
        hot_start = self.make(
            tokens_per_step=100_000, skew=1.3, final_skew=0.3, num_steps=60
        )
        trace = hot_start.generate(60)
        early = top_share(trace.expert_loads(2).astype(float) / 100_000, 3)
        late = top_share(trace.expert_loads(59).astype(float) / 100_000, 3)
        assert late < early

    def test_locality_bias_validated(self):
        with pytest.raises(ConfigurationError):
            DriftingRoutingGenerator(4, 2, WorkloadConfig(), locality_bias=1.5)

    def test_steps_are_drawn_as_int32(self):
        assert self.make().next_step().dtype == np.int32
        assert self.make().generate(2).step(1).dtype == np.int32
        layers = make_multilayer_trace(
            2, 16, 4, WorkloadConfig(tokens_per_step=1000, num_steps=2)
        )
        assert layers.step(1).dtype == np.int32

    @pytest.mark.parametrize("tokens", [2**31, 2**40])
    def test_rejects_steps_int32_cannot_hold(self, tokens, monkeypatch):
        """A step of 2**31 tokens or more fails before anything is drawn."""

        def no_draw(*args, **kwargs):
            raise AssertionError("drew a step")

        monkeypatch.setattr(DriftingRoutingGenerator, "_draw_step", no_draw)
        config = WorkloadConfig(tokens_per_step=tokens, num_steps=2)
        with pytest.raises(ConfigurationError, match=r"2\*\*31"):
            DriftingRoutingGenerator(4, 2, config).generate()
        with pytest.raises(ConfigurationError, match=r"2\*\*31"):
            make_multilayer_trace(2, 4, 2, config)

    def test_accepts_a_step_just_below_the_int32_limit(self):
        config = WorkloadConfig(tokens_per_step=2**31 - 1, num_steps=1)
        trace = DriftingRoutingGenerator(2, 1, config).generate()
        assert int(trace.step(0).sum()) == 2**31 - 1

    def test_make_trace_helper(self):
        trace = make_trace(8, 4, num_steps=3, tokens_per_step=1000, seed=1)
        assert trace.num_steps == 3
        assert sum(int(trace.step(t).sum()) for t in range(3)) == 3000


class TestTraceBuildingMemory:
    """Building a trace holds its ``(steps, E, G)`` history once: the
    tracemalloc peak stays near the trace's own size."""

    LIMIT = 1.25
    EXPERTS, GPUS = 64, 4096

    @staticmethod
    def traced_peak(build):
        """``build()``'s result and the peak bytes it allocated."""
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = build()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        return result, peak

    def config(self, steps: int) -> WorkloadConfig:
        return WorkloadConfig(
            tokens_per_step=8 * self.GPUS, num_steps=steps, seed=0
        )

    @staticmethod
    def nbytes(trace) -> int:
        """Bytes of the trace's one buffer, at its own cell size."""
        return trace.num_steps * trace.step(0).nbytes

    def test_generate(self):
        generator = DriftingRoutingGenerator(
            self.EXPERTS, self.GPUS, self.config(16)
        )
        trace, peak = self.traced_peak(generator.generate)
        size = self.nbytes(trace)
        assert size == 4 * trace.num_steps * trace.num_experts * trace.num_gpus
        assert size >= 16 * 2**20
        assert peak <= self.LIMIT * size

    def test_make_multilayer_trace(self):
        trace, peak = self.traced_peak(
            lambda: make_multilayer_trace(
                2, self.EXPERTS, self.GPUS, self.config(8)
            )
        )
        size = self.nbytes(trace)
        assert size == (
            4 * trace.num_layers * trace.num_steps
            * self.EXPERTS * self.GPUS
        )
        assert size >= 16 * 2**20
        assert peak <= self.LIMIT * size
