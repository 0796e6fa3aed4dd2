"""Runtime substrate: discrete-event execution of simulated training.

Replaces the paper's PyTorch + CUDA/NCCL runtime. The executor plays one
training step's timeline per GPU (dispatch All-to-All, expert compute,
combine All-to-All, replica AllReduce) against ground-truth hardware
figures plus jitter, producing the "real cost" the paper's Figure 6c
compares its cost-model estimates against. The adjustment queue reproduces
Section 4's operation merging, parallel execution and best-effort
background transfers.
"""

from repro.runtime.adjustment import AdjustmentQueue, AdjustmentReport
from repro.runtime.executor import (
    PipelinedStepExecutor,
    PipelineStepTiming,
    StepExecutor,
    StepTiming,
)
from repro.runtime.pipeline import (
    LayerPipeline,
    MultiLayerFlexMoEEngine,
    PipelineStepResult,
    build_engine,
)

__all__ = [
    "AdjustmentQueue",
    "AdjustmentReport",
    "LayerPipeline",
    "MultiLayerFlexMoEEngine",
    "PipelineStepResult",
    "PipelineStepTiming",
    "PipelinedStepExecutor",
    "StepExecutor",
    "StepTiming",
    "build_engine",
]
