"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one table or figure of the paper. Besides the
pytest-benchmark timing, each writes its paper-style rows/series to
``benchmarks/results/<name>.txt`` (and stdout) so the reproduction can be
diffed against the published numbers; ``docs/paper_mapping.md`` maps each
output to its table or figure.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def report(results_dir: Path, request: pytest.FixtureRequest):
    """Writer that persists a benchmark's findings and echoes them."""

    def write(name: str, content: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(content + "\n")
        print(f"\n[{name}]\n{content}\n")

    return write


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing.

    The experiments are end-to-end simulations (seconds to minutes); the
    default calibration loop would repeat them pointlessly.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
