"""Runtime substrate: discrete-event execution of simulated training.

Replaces the paper's PyTorch + CUDA/NCCL runtime. The executor plays one
training step's timeline per GPU (dispatch All-to-All, expert compute,
combine All-to-All, replica AllReduce) against ground-truth hardware
figures plus jitter, producing the "real cost" the paper's Figure 6c
compares its cost-model estimates against. :func:`transfer_seconds` prices
a batch of placement adjustments with Section 4's operation merging and
parallel execution; each layer pipeline's :class:`AdjustmentStream` is the
best-effort overlap.
"""

from repro.runtime.adjustment import AdjustmentStream, transfer_seconds
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
    "AdjustmentStream",
    "LayerPipeline",
    "MultiLayerFlexMoEEngine",
    "PipelineStepResult",
    "PipelineStepTiming",
    "PipelinedStepExecutor",
    "StepExecutor",
    "StepTiming",
    "build_engine",
    "transfer_seconds",
]
