"""Delta-cost placement search vs the full-recompute reference evaluator.

The Policy Maker (Algorithm 2) and the Migrate pass must evaluate hundreds
of candidate (Shrink, Expand) pairs and replica exchanges per scheduling
round without stalling training; FSMoE and Hecate both identify exactly
this planner overhead as the scaling bottleneck of online MoE scheduling.
This benchmark replays identical drifting workloads through both
evaluation paths and records:

* planner rounds/second of the delta search vs the reference evaluator
  (acceptance floor: >= 5x at the paper's 64-expert / 16-GPU scale);
* the equivalence verdicts: decision logs must be identical, and the
  delta path must never fall back to full recompute.

The training engine has no reference mode to time against; its
delta-vs-reference identity is a tier-1 test
(``tests/test_policy_delta_equivalence.py``).
"""

from conftest import run_once

from repro.bench.perf import planner_benchmark
from repro.bench.reporting import format_table

#: (experts, gpus) grid; the 64/16 point is the acceptance criterion.
SHAPES = ((16, 8), (64, 16), (128, 32))


def run_planner_bench():
    rows = []
    planner_results = {}
    for num_experts, num_gpus in SHAPES:
        result = planner_benchmark(
            num_experts=num_experts, num_gpus=num_gpus, num_steps=20
        )
        planner_results[(num_experts, num_gpus)] = result
        rows.append(
            [
                num_experts,
                num_gpus,
                f"{result['delta_rounds_per_sec']:.1f}",
                f"{result['reference_rounds_per_sec']:.1f}",
                f"{result['speedup']:.1f}x",
                "yes" if result["decisions_match"] else "NO",
            ]
        )
    table = format_table(
        ["experts", "gpus", "delta /s", "reference /s", "speedup", "identical"],
        rows,
        title="Planner throughput: delta-cost search vs reference",
    )
    return table, planner_results


def test_planner_delta(benchmark, report):
    table, planner_results = run_once(benchmark, run_planner_bench)
    report("planner_delta", table)
    for result in planner_results.values():
        assert result["decisions_match"]
        assert result["fallbacks"] == 0
        assert result["speedup"] > 1.0
    # Acceptance criterion: >= 5x planner rounds at the 64-expert /
    # 16-GPU scale, with identical decisions.
    assert planner_results[(64, 16)]["speedup"] >= 5.0
