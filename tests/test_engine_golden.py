"""Golden pin of the training engines' adjustment stream.

Four small seeded runs exercise every path that prices placement
adjustments during training:

* ``best_effort`` -- a two-layer :func:`~repro.runtime.pipeline.build_engine`
  run whose Expand/Migrate transfers and communicator creations ride the
  best-effort stream and commit a few steps later;
* ``blocking`` -- the same run with ``best_effort=False``, so every
  emission's transfer and creation seconds block the step they belong to;
* ``elastic`` -- a run with a device failure and its recovery, so
  re-homing and refill Expands are priced too;
* ``single_layer`` -- the single-layer :class:`FlexMoESystem`.

``tests/data/engine_golden.json`` holds each run's per-step step time,
adjustment blocking and committed actions (and, for the elastic run, the
live pool); ints must match exactly, floats to ``rel=1e-9``.

Regenerate (only when a change is *meant* to move the training engines)
with::

    PYTHONPATH=src python tests/test_engine_golden.py
"""

import json
from pathlib import Path

import pytest

from golden_compare import assert_matches_golden
from repro.baselines.base import build_context
from repro.baselines.flexmoe import FlexMoESystem
from repro.cluster.events import ClusterEvent, ElasticitySchedule
from repro.config import (
    ClusterConfig,
    MoEModelConfig,
    SchedulerConfig,
    WorkloadConfig,
)
from repro.runtime.pipeline import build_engine
from repro.training.loop import simulate_pipeline
from repro.workload.synthetic import DriftingRoutingGenerator, make_multilayer_trace

GOLDEN_PATH = Path(__file__).parent / "data" / "engine_golden.json"

MODEL = MoEModelConfig(
    name="engine-golden", num_layers=4, d_model=256, d_ffn=1024, num_experts=16
)
CLUSTER = ClusterConfig(num_nodes=2, gpus_per_node=4)
WORKLOAD = WorkloadConfig(
    tokens_per_step=262_144, num_steps=16, skew=1.3, drift=0.3, seed=3
)
NUM_MOE_LAYERS = 2


def _pipeline_run(**engine_kwargs) -> dict[str, list]:
    engine = build_engine(
        CLUSTER, MODEL, num_moe_layers=NUM_MOE_LAYERS, seed=1, **engine_kwargs
    )
    trace = make_multilayer_trace(
        NUM_MOE_LAYERS, MODEL.num_experts, CLUSTER.num_gpus, WORKLOAD
    )
    results = simulate_pipeline(engine, trace).results
    return {
        "step_time": [r.step_time for r in results],
        "adjustment_blocking": [
            r.timing.adjustment_blocking for r in results
        ],
        "committed": [[int(n) for n in r.layer_actions] for r in results],
        "live_gpus": [int(r.live_gpus) for r in results],
    }


def _single_layer_run(**scheduler_kwargs) -> dict[str, list]:
    context = build_context(CLUSTER, MODEL, seed=1)
    system = FlexMoESystem(context, SchedulerConfig(**scheduler_kwargs))
    trace = DriftingRoutingGenerator(
        MODEL.num_experts, CLUSTER.num_gpus, WORKLOAD
    ).generate()
    results = [system.step(trace.step(t), t) for t in range(trace.num_steps)]
    return {
        "step_time": [r.step_time for r in results],
        "adjustment_blocking": [
            r.timing.adjustment_blocking for r in results
        ],
        "committed": [int(r.scheduling_actions) for r in results],
    }


def runs() -> dict[str, dict[str, list]]:
    """Run the four pinned scenarios; returns their JSON-ready records."""
    elasticity = ElasticitySchedule(
        [
            ClusterEvent(step=4, kind="fail", gpu=2),
            ClusterEvent(step=9, kind="recover", gpu=2),
        ]
    )
    return {
        "best_effort": _pipeline_run(
            scheduler_config=SchedulerConfig(best_effort=True)
        ),
        "blocking": _pipeline_run(
            scheduler_config=SchedulerConfig(best_effort=False)
        ),
        "elastic": _pipeline_run(elasticity=elasticity),
        "single_layer": _single_layer_run(best_effort=False),
    }


@pytest.fixture(scope="module")
def observed():
    return runs()


@pytest.mark.parametrize(
    "name", ["best_effort", "blocking", "elastic", "single_layer"]
)
def test_engine_run_matches_golden(observed, name):
    golden = json.loads(GOLDEN_PATH.read_text())[name]
    assert_matches_golden(observed[name], golden, name)


def test_golden_runs_exercise_the_adjustment_stream():
    golden = json.loads(GOLDEN_PATH.read_text())
    for name in ("best_effort", "elastic"):
        assert sum(map(sum, golden[name]["committed"])) > 0, name
    # Blocking runs charge emitted work to the step that emitted it.
    assert any(b > 0 for b in golden["blocking"]["adjustment_blocking"])
    assert any(b > 0 for b in golden["single_layer"]["adjustment_blocking"])
    assert min(golden["elastic"]["live_gpus"]) < CLUSTER.num_gpus


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(runs(), indent=1) + "\n")
