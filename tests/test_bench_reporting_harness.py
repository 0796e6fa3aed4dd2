"""Unit tests for the bench harness and reporting helpers."""

import pytest

from repro.bench.harness import (
    SMOKE,
    ExperimentScale,
    cluster_for,
    quick_comparison,
)
from repro.bench.reporting import (
    format_series,
    format_table,
)
from repro.exceptions import ConfigurationError


class TestReporting:
    def test_table_alignment(self):
        table = format_table(
            ["name", "value"], [["a", 1.5], ["bb", 22]], title="T"
        )
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert len(lines) == 5

    def test_table_row_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            format_table(["a", "b"], [["only-one"]])

    def test_series(self):
        out = format_series("FlexMoE", [8, 16], [1.0, 1.9])
        assert "FlexMoE" in out
        assert "(8, 1)" in out

    def test_series_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            format_series("x", [1], [1, 2])


class TestHarness:
    def test_cluster_for_shapes(self):
        assert cluster_for(64).num_nodes == 8
        assert cluster_for(4).num_nodes == 1
        assert cluster_for(4).gpus_per_node == 4
        with pytest.raises(ConfigurationError):
            cluster_for(12)

    def test_scale_workload_overrides(self):
        scale = ExperimentScale(num_steps=7)
        wl = scale.workload(seed=3, skew=0.5)
        assert wl.num_steps == 7
        assert wl.seed == 3
        assert wl.skew == 0.5

    def test_quick_comparison_smoke(self):
        result = quick_comparison(num_gpus=4, num_experts=8, num_steps=6)
        assert set(result.systems) == {"DeepSpeed", "FasterMoE", "FlexMoE"}
        assert result.speedup("FlexMoE") > 0
