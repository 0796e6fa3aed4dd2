"""Focused tests for skew annealing and locality bias in the generator."""

import numpy as np
import pytest

from repro.config import WorkloadConfig
from repro.workload.synthetic import DriftingRoutingGenerator

from trace_helpers import top_share


class TestSkewAnnealing:
    def test_constant_skew_without_final(self):
        cfg = WorkloadConfig(
            tokens_per_step=200_000, num_steps=80, skew=1.3, drift=0.0,
            renewal_period=10_000, seed=2,
        )
        gen = DriftingRoutingGenerator(32, 4, cfg)
        trace = gen.generate()
        early_loads = trace.expert_loads(5).astype(float)
        late_loads = trace.expert_loads(75).astype(float)
        early = top_share(early_loads / early_loads.sum(), 5)
        late = top_share(late_loads / late_loads.sum(), 5)
        assert late == pytest.approx(early, abs=0.1)

    def test_anneal_toward_uniform(self):
        cfg = WorkloadConfig(
            tokens_per_step=200_000, num_steps=80, skew=1.3, final_skew=0.0,
            drift=0.0, renewal_period=10_000, seed=2,
        )
        gen = DriftingRoutingGenerator(32, 4, cfg)
        trace = gen.generate()
        late = trace.expert_loads(79).astype(float)
        late_share = top_share(late / late.sum(), 5)
        # Uniform over 32 experts: top-5 share ~ 5/32 = 0.156.
        assert late_share < 0.35

    def test_anneal_upward_also_works(self):
        cfg = WorkloadConfig(
            tokens_per_step=200_000, num_steps=60, skew=0.5, final_skew=2.0,
            drift=0.0, renewal_period=10_000, seed=2,
        )
        gen = DriftingRoutingGenerator(16, 4, cfg)
        trace = gen.generate()
        early = top_share(trace.expert_loads(2).astype(float), 2)
        late = top_share(trace.expert_loads(59).astype(float), 2)
        assert late > early


class TestLocalityBias:
    def test_bias_concentrates_gpu_preferences(self):
        base_cfg = WorkloadConfig(
            tokens_per_step=400_000, num_steps=5, skew=0.0, seed=4
        )
        plain = DriftingRoutingGenerator(32, 4, base_cfg)
        biased = DriftingRoutingGenerator(
            32, 4, base_cfg, locality_bias=0.8
        )
        frame_plain = plain.next_step()
        frame_biased = biased.next_step()
        # Per-GPU concentration (max expert share per column).
        conc_plain = (frame_plain.max(axis=0) / frame_plain.sum(axis=0)).mean()
        conc_biased = (
            frame_biased.max(axis=0) / frame_biased.sum(axis=0)
        ).mean()
        assert conc_biased > conc_plain

    def test_bias_preserves_totals(self):
        cfg = WorkloadConfig(tokens_per_step=100_000, num_steps=3, seed=4)
        gen = DriftingRoutingGenerator(16, 4, cfg, locality_bias=0.5)
        assert gen.next_step().sum() == 100_000
