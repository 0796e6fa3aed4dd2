"""Unified discrete-event simulation kernel and scenario specs.

One clock for every workload: training steps, timed cluster events,
adjustment-stream budgets and serving arrivals all run as event sources
on the :class:`~repro.sim.kernel.SimKernel`, composed declaratively by
:class:`~repro.sim.scenario.Scenario` specs. ``repro.sim.composed``
builds the flagship composition (serving + elasticity + budgeted
migration) behind ``python -m repro scenario``; it is imported lazily to
keep this package importable from the layers it serves. See
``docs/simulation.md``.
"""

from repro.sim.kernel import EventSource, Priority, SimEvent, SimKernel
from repro.sim.scenario import Scenario, clamp_warmup, smoke_scale
from repro.sim.sources import (
    AutoscalerSource,
    MultiTenantServingSource,
    PipelineStepSource,
    StreamBudgetSource,
    SystemStepSource,
    TimedClusterEventSource,
)

__all__ = [
    "AutoscalerSource",
    "EventSource",
    "MultiTenantServingSource",
    "PipelineStepSource",
    "Priority",
    "Scenario",
    "SimEvent",
    "SimKernel",
    "StreamBudgetSource",
    "SystemStepSource",
    "TimedClusterEventSource",
    "clamp_warmup",
    "smoke_scale",
]
