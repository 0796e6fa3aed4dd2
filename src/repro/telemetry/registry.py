"""Metrics registry: counters, gauges and fixed-bucket histograms.

The registry is the repo's one sink for operational numbers that used to
live in subsystem-specific dicts (memo ``stats()``, admission rejection
counters, autoscaler decision logs, serving percentiles). Instruments
are plain Python objects with O(1) updates; the registry is purely
passive (recording never changes a scheduling or serving decision), and
a seeded run under an active registry produces a byte-identical snapshot
every time.

Cost model when telemetry is disabled: subsystems consult
:func:`repro.telemetry.current` (a module-global read) and skip every
instrument call when no session is active, so the disabled-mode tap cost
is one ``is not None`` branch -- gated by the telemetry-overhead
benchmark in :mod:`repro.bench.perf`.

Instruments are cached by ``(name, sorted labels)``: asking for the same
counter twice returns the same object. Snapshot keys are rendered as
``name{k=v,...}`` with labels sorted, so snapshots are deterministic and
diffable.
"""

from __future__ import annotations

import bisect
import json
from typing import Sequence

from repro.exceptions import ConfigurationError

#: A labels tuple: sorted ``(key, value)`` pairs.
LabelsKey = tuple[tuple[str, str], ...]


def _labels_key(labels: dict[str, object]) -> LabelsKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def metric_key(name: str, **labels: object) -> str:
    """The snapshot key of an instrument: ``name{k=v,...}`` (labels
    sorted), or the bare name when unlabeled. The one string format both
    the registry and its readers (CLI printers, tests) agree on."""
    items = _labels_key(labels)
    if not items:
        return name
    rendered = ",".join(f"{k}={v}" for k, v in items)
    return f"{name}{{{rendered}}}"


class Counter:
    """Monotone event count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counters are monotone; cannot add {amount}"
            )
        self.value += amount


class Gauge:
    """Last-written value (levels: percentiles, pool sizes, rates)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram (cumulative-free, one count per bucket).

    ``buckets`` are the upper bounds of the finite buckets, strictly
    increasing; an implicit overflow bucket catches everything above the
    last bound. ``observe`` is a bisect plus two float adds, so the
    enabled-mode cost stays flat regardless of observation volume.
    """

    __slots__ = ("bounds", "counts", "count", "total")

    def __init__(self, buckets: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ConfigurationError("histogram needs at least one bucket")
        if any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise ConfigurationError(
                f"histogram buckets must be strictly increasing: {bounds}"
            )
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 = overflow
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value


class MetricsRegistry:
    """Registry of named, optionally labeled instruments.

    One registry per :class:`~repro.telemetry.session.TelemetrySession`;
    harnesses may also construct standalone registries to publish
    post-hoc stats into (``MemoizedStepCost.publish``,
    ``ServingReport.publish_metrics``).
    """

    def __init__(self) -> None:
        self._counters: dict[tuple[str, LabelsKey], Counter] = {}
        self._gauges: dict[tuple[str, LabelsKey], Gauge] = {}
        self._histograms: dict[tuple[str, LabelsKey], Histogram] = {}

    # ------------------------------------------------------------------
    # Instrument access (get-or-create; same key returns same object)
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: object) -> Counter:
        key = (name, _labels_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = (name, _labels_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(
        self, name: str, buckets: Sequence[float], **labels: object
    ) -> Histogram:
        key = (name, _labels_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(buckets)
        return instrument

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return (
            len(self._counters) + len(self._gauges) + len(self._histograms)
        )

    def counter_total(self, name: str) -> float:
        """Counter ``name`` summed over every label set (0.0 if absent),
        e.g. the per-tenant ``admission.admitted`` counters."""
        return sum(
            counter.value
            for (counter_name, _), counter in self._counters.items()
            if counter_name == name
        )

    def snapshot(self) -> dict[str, object]:
        """Deterministic flat view: ``{"counters": {...}, "gauges":
        {...}, "histograms": {...}}`` with ``name{k=v}`` keys sorted."""

        def render(family: dict) -> dict[str, object]:
            out = {}
            for (name, labels), instrument in family.items():
                out[metric_key(name, **dict(labels))] = instrument
            return dict(sorted(out.items()))

        counters = {
            k: v.value for k, v in render(self._counters).items()
        }
        gauges = {k: v.value for k, v in render(self._gauges).items()}
        histograms = {
            k: {
                "buckets": list(v.bounds),
                "counts": list(v.counts),
                "count": v.count,
                "sum": v.total,
            }
            for k, v in render(self._histograms).items()
        }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)
