"""The committed serving artifacts reproduce from the code that made them.

Each case regenerates one root ``BENCH_*.json`` in-process with the
command's own suite function, smoke flag and seed 0, and compares it with
the committed file: key sets, ints, bools and strings exactly, floats at
``rel=1e-9``. A change to the serving setup (calibration, tenant mix,
server construction) that moves any committed number fails here, so run
this after any such refactor; regenerate an artifact only when its
numbers are meant to move.
"""

import json
from pathlib import Path

import pytest

from repro.bench.churn import churn_bench_run
from repro.bench.serving import multitenant_suite, serving_suite
from repro.sim.composed import composed_scenario_run

from golden_compare import assert_matches_golden

REPO = Path(__file__).resolve().parents[1]

#: Committed artifact -> the in-process run of the command that wrote it.
ARTIFACTS = {
    "BENCH_serving_latency.json": lambda: serving_suite(smoke=True),
    "BENCH_multitenant.json": lambda: multitenant_suite(smoke=True),
    "BENCH_composed_scenario.json": lambda: composed_scenario_run(
        smoke=False
    ),
    "BENCH_autoscale_churn.json": lambda: churn_bench_run(smoke=True),
}


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_committed_serving_artifact_reproduces(name):
    committed = json.loads((REPO / name).read_text(encoding="utf-8"))
    assert_matches_golden(ARTIFACTS[name](), committed, name)
