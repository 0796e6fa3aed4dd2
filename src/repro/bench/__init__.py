"""Experiment harness regenerating the paper's tables and figures.

Every benchmark under ``benchmarks/`` maps to one table or figure of the
evaluation section; :mod:`repro.bench.harness` holds the shared experiment
drivers, :mod:`repro.bench.reporting` renders paper-style rows/series,
:mod:`repro.bench.perf` measures the scheduling hot path (``python -m
repro perf``, ``BENCH_step_overhead.json``),
:mod:`repro.bench.serving` compares the dynamic and static online servers
(``python -m repro serve``, ``BENCH_serving_latency.json``), and
:mod:`repro.bench.gates` holds the named gates of every ``BENCH_*.json``
suite (``python -m repro check``).
"""

from repro.bench.harness import (
    ExperimentScale,
    figure5_comparison,
    quick_comparison,
    scalability_sweep,
)
from repro.bench.perf import (
    perf_suite,
    planner_benchmark,
    write_report,
)
from repro.bench.reporting import format_series, format_table
from repro.bench.serving import ServingRunResult, serving_run

__all__ = [
    "ExperimentScale",
    "ServingRunResult",
    "figure5_comparison",
    "format_series",
    "format_table",
    "perf_suite",
    "planner_benchmark",
    "quick_comparison",
    "scalability_sweep",
    "serving_run",
    "write_report",
]
