"""Unified telemetry layer: metrics, span tracing, decision timeline.

Three coordinated pieces on one simulated clock:

- :mod:`repro.telemetry.registry` -- counters, gauges and fixed-bucket
  histograms behind a deterministic snapshot (memo hit/miss per phase,
  admission/shed/preemption counts, serving percentiles, autoscaler
  decisions).
- :mod:`repro.telemetry.tracing` -- span tracing over kernel event
  processing and the pipeline phase split, exported as Chrome
  trace-event JSON that Perfetto loads directly.
- :mod:`repro.telemetry.timeline` -- the typed control-plane decision
  timeline (triggers, placements, preemptions, scaling, shed waves).

Activation is scope-based and near-zero cost when off: tap points call
:func:`current` and skip everything on ``None``. See
docs/observability.md for the span model, timeline schema, and the
Perfetto how-to.
"""

from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metric_key,
)
from repro.telemetry.session import (
    TelemetrySession,
    current,
    session,
    suppressed,
)
from repro.telemetry.timeline import DecisionTimeline, TimelineEvent
from repro.telemetry.tracing import (
    TID_CONTROL,
    TID_PIPELINE,
    TID_SERVING,
    SpanTracer,
    TraceTrack,
    to_trace_us,
)

__all__ = [
    "Counter",
    "DecisionTimeline",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanTracer",
    "TelemetrySession",
    "TimelineEvent",
    "TraceTrack",
    "TID_CONTROL",
    "TID_PIPELINE",
    "TID_SERVING",
    "current",
    "metric_key",
    "session",
    "suppressed",
    "to_trace_us",
]
