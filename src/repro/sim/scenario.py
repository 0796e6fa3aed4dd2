"""Scenario specs: declarative bundles of event sources on one kernel.

A :class:`Scenario` is the unit of composition: it names the run,
declares which :class:`~repro.sim.kernel.EventSource` instances populate
the shared clock and bounds the horizon. Running a
scenario is always the same three lines -- build a kernel, prime every
source, drain the queue -- so adding a workload means writing a source,
never another bespoke loop.

The module also owns the repo-wide smoke-duration policy. Every harness
used to carry its own CI-scale downscaling (trace lengths, step counts,
request counts); :func:`smoke_scale` is now the single place that
policy lives, and
:class:`~repro.bench.harness.ExperimentScale` presets derive from it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro import telemetry
from repro.exceptions import ConfigurationError
from repro.sim.kernel import EventSource, Priority, SimKernel


def smoke_scale(value: int | float, floor: int | float = 1) -> int | float:
    """The repo's one smoke-downscaling rule: a quarter, floored.

    CI-scale runs keep every scenario's *structure* (models, cluster
    shapes, event mixes) and shrink only its *duration*. Integers stay
    integers (trace lengths, request counts); floats stay floats
    (simulated-second horizons). Smoke scaling never ENLARGES a run: a
    value already at or below the floor is returned unchanged.
    """
    if value < 0:
        raise ConfigurationError(f"cannot smoke-scale negative value {value}")
    if isinstance(value, int):
        return min(value, max(int(floor), value // 4))
    return min(float(value), max(float(floor), value / 4.0))


def clamp_warmup(warmup: int, num_steps: int) -> int:
    """Clamp a warmup to what a run of ``num_steps`` can exclude."""
    return min(warmup, max(num_steps - 1, 0))


@dataclass(frozen=True)
class Scenario:
    """A declarative simulation spec: sources + duration.

    Attributes:
        name: Human-readable scenario name (labels traces and reports).
        sources: Event sources primed onto the shared kernel, in order.
            Priming order only affects tie-breaking ``seq`` numbers;
            simultaneous events still resolve by declared priority.
        duration: Kernel-time horizon. Events past it never fire and the
            clock lands exactly on it; ``None`` runs to quiescence. The
            unit is whatever the sources schedule in -- step indices for
            training scenarios, simulated seconds for serving ones.
    """

    name: str
    sources: tuple[EventSource, ...]
    duration: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario name must not be empty")
        if not self.sources:
            raise ConfigurationError("scenario must declare at least one source")
        if self.duration is not None and self.duration <= 0:
            raise ConfigurationError(
                f"scenario duration must be > 0, got {self.duration}"
            )

    def replace(self, **changes: object) -> "Scenario":
        """Return a copy of this scenario with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    def run(self) -> SimKernel:
        """Execute the scenario on a fresh kernel and return it.

        Sources accumulate their own results; read them off the source
        objects after the run. The returned kernel exposes the final
        clock and processed-event count.

        When a :mod:`repro.telemetry` session is active, the run binds
        to it: the session clock follows this kernel, and -- if the
        session carries a tracer -- the kernel gets its own trace track
        (one Chrome "process" per kernel, priority lanes named after
        :class:`~repro.sim.kernel.Priority`) so every processed event
        and every source-emitted span lands in the export. Telemetry
        never changes scheduling decisions; disabled runs skip all of
        this at the cost of one branch.
        """
        session = telemetry.current()
        track = None
        if session is not None and session.tracer is not None:
            track = session.tracer.new_track(self.name)
            for priority in Priority:
                track.thread_name(int(priority), f"kernel/{priority.name}")
        kernel = SimKernel(tracer=track)
        if session is not None:
            session.bind_clock(lambda: kernel.now)
            session.bind_track(track)
        for source in self.sources:
            source.prime(kernel, self)
        kernel.run(until=self.duration)
        return kernel
