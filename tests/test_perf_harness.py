"""The scheduling-overhead perf harness (repro.bench.perf)."""

import json

from repro.bench.perf import planner_benchmark, write_report


def test_planner_benchmark_reports_equivalence_and_counters():
    result = planner_benchmark(
        num_experts=8, num_gpus=4, num_steps=6, tokens_per_gpu=8192
    )
    assert result["decisions_match"]
    assert result["fallbacks"] == 0
    assert result["delta_rounds_per_sec"] > 0
    assert result["reference_rounds_per_sec"] > 0
    assert result["rounds"] == 12
    # The memo's hit/miss accounting is surfaced for bench reporting.
    assert result["memo"]["misses"] > 0
    assert set(result["delta"]) >= {"rebases", "evaluations", "fallbacks"}
    # The untimed allocation pass reports the replay's memory columns.
    allocation = result["allocation"]
    assert allocation["tracemalloc_peak_kb"] > 0
    assert allocation["tracemalloc_peak_kb"] >= (
        allocation["tracemalloc_current_kb"]
    )
    assert allocation["live_blocks_per_step"] > 0
    assert allocation["peak_rss_kb"] > 0


def test_write_report_round_trips(tmp_path):
    report = {"suite": "step_overhead", "ok": True, "speedup": 5.0}
    path = write_report(report, tmp_path / "BENCH_step_overhead.json")
    assert json.loads(path.read_text()) == report


def test_planner_benchmark_memo_hit_rate_positive():
    """Regression for the dead memo cache: the planner path must show
    genuine hits (the Migration Planner's reference baseline re-prices
    the configuration the Policy Maker just scored through the SHARED
    memo), attributed to the migration phase."""
    result = planner_benchmark(
        num_experts=8, num_gpus=4, num_steps=6, tokens_per_gpu=8192
    )
    memo = result["memo"]
    assert memo["hits"] > 0
    assert memo["hit_rate"] > 0
    assert memo["phases"]["migration"]["hits"] > 0
    # And the shared memo changed no decision.
    assert result["decisions_match"]


def test_serving_events_benchmark_floor():
    from repro.bench.perf import (
        SERVING_EVENTS_PER_SEC_FLOOR,
        serving_events_benchmark,
    )

    result = serving_events_benchmark(
        num_gpus=8, num_experts=16, num_requests=400, repeats=1,
    )
    # The CI throughput floor holds even at this tiny scale.
    assert result["events_per_sec"] >= SERVING_EVENTS_PER_SEC_FLOOR
    assert result["num_batches"] > 0
    assert result["logical_events"] == (
        result["num_requests"] + 2 * result["num_batches"]
    )


def test_kernel_events_benchmark_floor():
    from repro.bench.perf import (
        KERNEL_EVENTS_PER_SEC_FLOOR,
        kernel_events_benchmark,
    )

    result = kernel_events_benchmark(num_ticks=300, repeats=1)
    assert result["events_per_sec"] >= KERNEL_EVENTS_PER_SEC_FLOOR
    # fan=12 events per tick, a fifth of them (j % 5 == 0: 3 of 12)
    # re-scheduling one more at the same instant.
    assert result["total_events"] == 300 * (12 + 3)


def test_engine_scale_benchmark_splits_stages_and_skips_over_budget():
    from repro.bench.scale import (
        ENGINE_MEMORY_BUDGET_BYTES,
        engine_footprint_bytes,
        engine_scale_benchmark,
    )

    result = engine_scale_benchmark(16, 16, 2, num_steps=2, tokens_per_gpu=1024)
    stages = result["stage_seconds"]
    assert set(stages) == {"router", "executor", "scheduler"}
    assert all(seconds > 0 for seconds in stages.values())
    assert sum(stages.values()) <= result["seconds"]
    assert result["steps_per_sec"] > 0
    # The footprint, not the device count, decides a skip.
    footprint = engine_footprint_bytes(4096, 512, 32, 4)
    assert sum(footprint.values()) > ENGINE_MEMORY_BUDGET_BYTES
    skipped = engine_scale_benchmark(4096, 512, 32)
    assert skipped["trace_bytes"] == footprint["trace_bytes"]
    # The trace is sized at its int32 cells: 32 x 4 x 512 x 4096 x 4 bytes.
    assert footprint["trace_bytes"] == 4 * 32 * 4 * 512 * 4096
    assert "int32 is 1.07 GB" in skipped["skipped"]


def test_planner_scale_speedup_is_the_median_of_alternating_pairs(monkeypatch):
    from repro.bench import scale

    timed = {"flat": iter([1.0, 5.0, 2.0]), "hierarchical": iter([2.0, 1.0, 1.0])}
    calls = []

    def replay(cost_model, topology, trace, slots, placement_search):
        calls.append(placement_search)
        # The first call per mode is the untimed warm-up.
        seconds = next(timed[placement_search]) if len(calls) > 2 else 9.0
        return seconds, [placement_search], 1.0, 0

    monkeypatch.setattr(scale, "_planner_replay", replay)
    result = scale.planner_scale_benchmark(16, 16, num_steps=2, tokens_per_gpu=64)
    assert calls == ["flat", "hierarchical"] * (1 + scale.PLANNER_TIMED_REPLAYS)
    assert result["timed_replays"] == 3
    # Per-pair ratios 0.5, 5 and 2: one slow flat replay cannot decide it.
    assert result["speedup"] == 2.0
    assert result["flat_seconds"] == 2.0
    assert result["hierarchical_seconds"] == 1.0
