"""Self-test of the repository benchmark at tiny sizes.

Every workload runs untraced and traced; the emitted metric names and
units must be exactly BENCHMARK.json's, the correctness checks must
pass, and the simulated results must not depend on tracing.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import harness, pace  # noqa: E402
from perfbench.spans import MEASURE_SPAN  # noqa: E402
from repro.core.placement import Placement  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    Outcome,
    PlanWorkload,
    ServeWorkload,
    Workload,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "plan-4096g": lambda seed: PlanWorkload(
        seed, 1.0, num_gpus=16, num_experts=16, tokens_per_gpu=256,
        trace_steps=3, sub_runs=2,
    ),
    "serve-mt16g": lambda seed: ServeWorkload(
        seed, 1.0, num_gpus=8, num_experts=16, num_requests=60,
    ),
}


def _declared(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def _emitted(result: dict) -> dict[str, str]:
    return {name: entry["unit"] for name, entry in result["metrics"].items()}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(TINY) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_metrics_and_checks(name):
    untraced = harness.run_untraced(TINY[name](3))
    assert _emitted(untraced) == _declared("end_to_end")
    assert untraced["attempted"] >= 1 and untraced["failed"] == 0
    for metric in SPEC["end_to_end"]:
        assert untraced["metrics"][metric["name"]]["value"] > 0

    traced, tracer = harness.run_traced(TINY[name](3))
    assert _emitted(traced) == _declared("per_layer")
    assert traced["attempted"] >= 1 and traced["failed"] == 0
    assert tracer.spans and all(span[2] is not None for span in tracer.spans)
    assert set(tracer.self_times()) <= set(harness.SPAN_METRICS) | {MEASURE_SPAN}
    # The workloads' root span is glue, never a layer's time.
    assert traced["metrics"]["trace.unattributed_s"]["value"] > 0
    # The same seed reproduces every simulated result, traced or not.
    assert traced["sim"] == untraced["sim"]


class _FixedRates(Workload):
    """Two sub-runs at 10 and 30 operations per second."""

    name = "fixed"
    sub_runs = 2
    host_sensitivity = {"interpreter": 1.0, "arrays": 0.5}

    def setup(self, tracer, index):
        return index

    def measure(self, state, tracer):
        return Outcome(1, 0, 1.0, (10.0, 30.0)[state], {"sim_time_s": 1.0}, {})


def test_pacing_scales_throughput_and_setup(monkeypatch):
    # The host runs every reference kernel at half its usual speed.
    monkeypatch.setattr(
        pace, "reference_times",
        lambda names, count=3: {
            name: [2 * pace.KERNELS[name][1]] * count for name in names
        },
    )
    # Every set-up takes one second on a clock that ticks once per read.
    ticks = itertools.count()
    monkeypatch.setattr(
        harness, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks))
    )
    metrics = harness.run_untraced(_FixedRates(1))["metrics"]
    paced = 2.0 ** 1.0 * 2.0 ** 0.5
    assert metrics["throughput_per_s"]["value"] == pytest.approx(20.0 * paced)
    assert metrics["setup_s"]["value"] == pytest.approx(1.0 / paced)


def test_refused_planner_action_counts_as_failed():
    # One slot per device and one replica per expert: any removal is refused.
    placement = Placement.balanced(4, 4, 1)

    class RemoveLast:
        def apply(self, target):
            target.remove_vexpert(0, 0)

    _, failed = PlanWorkload._round(lambda: [RemoveLast()], placement)
    assert failed
    _, failed = PlanWorkload._round(lambda: [], placement)
    assert not failed


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-mt16g",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
