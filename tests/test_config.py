"""Unit tests for configuration dataclasses and validation."""

import dataclasses

import pytest

from repro.config import (
    ClusterConfig,
    DeviceSpec,
    MoEModelConfig,
    SchedulerConfig,
    WorkloadConfig,
    WIRE_BYTES_PER_ELEMENT,
)
from repro.exceptions import ConfigurationError


def make_model(**overrides):
    base = dict(
        name="m", num_layers=2, d_model=16, d_ffn=64, num_experts=4
    )
    base.update(overrides)
    return MoEModelConfig(**base)


class TestMoEModelConfig:
    def test_expert_params_counts_both_matrices_and_biases(self):
        m = make_model()
        assert m.expert_params == 2 * 16 * 64 + 64 + 16

    def test_expert_bytes_uses_wire_precision(self):
        m = make_model()
        assert m.expert_bytes == m.expert_params * WIRE_BYTES_PER_ELEMENT

    def test_state_bytes_include_adam_moments(self):
        m = make_model()
        assert m.expert_state_bytes == m.expert_params * 4 * 4

    def test_token_bytes(self):
        assert make_model().token_bytes == 16 * WIRE_BYTES_PER_ELEMENT

    def test_flops_per_token_positive(self):
        assert make_model().flops_per_token > 0

    def test_rejects_bad_topk(self):
        with pytest.raises(ConfigurationError):
            make_model(top_k=5)
        with pytest.raises(ConfigurationError):
            make_model(top_k=0)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            make_model(capacity_factor=0.0)

    def test_none_capacity_allowed(self):
        assert make_model(capacity_factor=None).capacity_factor is None

    def test_replace_returns_modified_copy(self):
        m = make_model()
        m2 = dataclasses.replace(m, num_experts=8)
        assert m2.num_experts == 8
        assert m.num_experts == 4


class TestDeviceSpec:
    def test_effective_flops(self):
        spec = DeviceSpec(peak_flops=100.0, mfu=0.5)
        assert spec.effective_flops == 50.0

    def test_tokens_per_second_scales_inverse_with_flops_per_token(self):
        spec = DeviceSpec()
        small = make_model(d_model=16)
        large = make_model(d_model=32)
        assert spec.tokens_per_second(small) > spec.tokens_per_second(large)

    def test_rejects_bad_mfu(self):
        with pytest.raises(ConfigurationError):
            DeviceSpec(mfu=0.0)
        with pytest.raises(ConfigurationError):
            DeviceSpec(mfu=1.5)


class TestClusterConfig:
    def test_num_gpus(self):
        assert ClusterConfig(num_nodes=3, gpus_per_node=4).num_gpus == 12

    def test_rejects_zero_nodes(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(num_nodes=0)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(intra_node_bandwidth=0)

    def test_replace(self):
        c = dataclasses.replace(ClusterConfig(), num_nodes=2)
        assert c.num_nodes == 2


class TestWorkloadConfig:
    def test_defaults_valid(self):
        WorkloadConfig()

    def test_rejects_zero_tokens(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(tokens_per_step=0)

    def test_rejects_negative_final_skew(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(final_skew=-1.0)

    def test_final_skew_none_ok(self):
        assert WorkloadConfig(final_skew=None).final_skew is None


class TestSchedulerConfig:
    def test_defaults_valid(self):
        cfg = SchedulerConfig()
        assert cfg.metric == "max"
        assert cfg.mode == "dynamic"

    def test_rejects_unknown_metric(self):
        with pytest.raises(ConfigurationError):
            SchedulerConfig(metric="median")

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            SchedulerConfig(mode="sometimes")

    def test_rejects_threshold_below_one(self):
        with pytest.raises(ConfigurationError):
            SchedulerConfig(balance_threshold=0.9)

    def test_rejects_zero_slots(self):
        with pytest.raises(ConfigurationError):
            SchedulerConfig(slots_per_gpu=0)
