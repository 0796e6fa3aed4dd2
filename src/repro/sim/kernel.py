"""The unified discrete-event simulation kernel.

Every loop in this repository that advances simulated time -- training
steps, elasticity schedules, best-effort adjustment drains, serving
arrivals and batch completions -- runs on ONE substrate: the
:class:`SimKernel`, one heap of :class:`SimEvent` tuples with
deterministic ``(time, priority, seq)`` ordering and one clock, so any
mix of workloads composes on a shared clock (see
``docs/simulation.md``). The one other step loop is the plain inline
``engine.step`` baseline the perf harness times the kernel against.

Ordering rules:

* events fire in nondecreasing ``time`` order;
* simultaneous events resolve by declared :class:`Priority` -- failures
  before scheduling triggers before step execution before stream drains
  (and, on the serving side, completions before arrivals before
  dispatches);
* events equal in both time and priority fire in scheduling order
  (``seq`` is a monotone counter assigned by the kernel), so a seeded
  simulation is bit-reproducible.

:class:`EventSource` is the protocol scenario components implement:
:meth:`~EventSource.prime` receives the kernel and the owning
:class:`~repro.sim.scenario.Scenario` and schedules the source's initial
events; follow-up events are scheduled from callbacks.
"""

from __future__ import annotations

import heapq
import itertools
import math
from enum import IntEnum
from typing import (
    TYPE_CHECKING,
    Callable,
    NamedTuple,
    Protocol,
    runtime_checkable,
)

from repro.exceptions import SimulationError
from repro.telemetry.tracing import TraceTrack

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.scenario import Scenario


class Priority(IntEnum):
    """Declared resolution order for simultaneous events (lower first).

    The gaps leave room for scenario-specific levels without renumbering.
    """

    #: Cluster elasticity: failures/recoveries/speed changes apply before
    #: anything else sees the pool.
    FAILURE = 0
    #: Scheduling/monitoring: triggers observe the (post-elasticity)
    #: assignment and emit placement actions.
    TRIGGER = 10
    #: Capacity control: autoscaler evaluation ticks observe the
    #: post-trigger signals and emit provisioning decisions before any
    #: same-instant serving events run.
    CONTROL = 15
    #: A batch finishing execution (serving) -- frees the server before
    #: same-instant arrivals are admitted.
    COMPLETION = 20
    #: A request arriving (serving) -- admitted before any same-instant
    #: dispatch forms its batch.
    ARRIVAL = 30
    #: Step/batch execution.
    STEP = 40
    #: Best-effort adjustment streams receiving transfer budget.
    STREAM = 50


class SimEvent(NamedTuple):
    """One scheduled callback, ordered by ``(time, priority, seq)``.

    A plain tuple, so the heap compares events in C. The kernel assigns
    ``seq`` from one counter, so no two events tie on it and a
    comparison never reaches ``callback``.
    """

    time: float
    priority: int
    seq: int
    callback: Callable[[], None]
    label: str = ""


class SimKernel:
    """The event loop: one heap of :class:`SimEvent`, one ``seq``
    counter and one monotone clock (seconds or steps; the scenario
    decides), starting at zero. Events pushed at the same ``(time,
    priority)`` pop in push order -- the property the determinism tests
    assert.

    Args:
        tracer: A :class:`~repro.telemetry.tracing.TraceTrack` to record
            every processed event into as a Chrome trace event (one
            zero-duration complete event on the lane of its priority,
            ``seq`` in its args): the ``(time, priority, seq, label)``
            log the determinism tests compare. Sources read it back via
            :attr:`tracer` to emit their own spans on the same track.
            Without one, the loop pays a single ``is not None`` branch
            per event.
    """

    def __init__(self, tracer: TraceTrack | None = None) -> None:
        self._heap: list[SimEvent] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._processed = 0
        self._tracer = tracer

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def processed_events(self) -> int:
        return self._processed

    @property
    def tracer(self) -> TraceTrack | None:
        """The Chrome trace track this kernel mirrors into, if any.

        Sources use it to emit their own spans (pipeline phases,
        serving batches, decision instants) on the kernel's track."""
        return self._tracer

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = Priority.STEP,
        label: str = "",
    ) -> SimEvent:
        """Schedule ``callback`` at absolute simulation time ``time``.

        Raises:
            SimulationError: On a non-finite ``time`` or one before the
                current time.
        """
        time = float(time)
        if not self._now <= time < math.inf:  # NaN fails both
            raise SimulationError(
                f"cannot schedule at {time}: event times must be finite "
                f"and not before the current time {self._now}"
            )
        event = SimEvent(time, int(priority), next(self._seq), callback, label)
        heapq.heappush(self._heap, event)
        return event

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = Priority.STEP,
        label: str = "",
    ) -> SimEvent:
        """Schedule ``callback`` ``delay`` seconds from now.

        Raises:
            SimulationError: On a negative or non-finite ``delay``.
        """
        if not 0 <= delay < math.inf:  # NaN fails both
            raise SimulationError(
                f"cannot schedule after delay {delay}: delays must be finite "
                "and >= 0"
            )
        return self.schedule_at(self._now + delay, callback, priority, label)

    def _advance_to(self, time: float) -> None:
        """Move the clock forward; moving backwards is a kernel bug."""
        if time < self._now:
            raise SimulationError(
                f"clock cannot move backwards ({self._now} -> {time})"
            )
        self._now = time

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def run(
        self, until: float | None = None, max_events: int = 5_000_000
    ) -> float:
        """Process events in ``(time, priority, seq)`` order.

        Args:
            until: Stop once the next event would fire after this time
                (remaining events stay queued and the clock lands exactly
                on ``until``). ``None`` drains the queue.
            max_events: Guard against runaway simulations.

        Returns:
            The simulation time after the run.

        Raises:
            SimulationError: On a non-finite ``until``, an ``until``
                before the current time, or an exhausted budget.

        Each loop pops one event off the heap, so dispatch follows the
        ``(time, priority, seq)`` order by construction. A callback that
        raises, or an exhausted budget, leaves every undispatched event
        queued for a resumed run.
        """
        if until is not None:
            until = float(until)
            if not math.isfinite(until):
                raise SimulationError(
                    f"cannot run until {until}: the time must be finite"
                )
        heap = self._heap
        pop = heapq.heappop
        tracer = self._tracer
        while heap:
            if self._processed >= max_events:
                raise SimulationError(
                    f"event budget exhausted after {max_events} events"
                )
            if until is not None and heap[0].time > until:
                self._advance_to(until)
                return self._now
            # schedule_at refuses times before now, so this never rewinds.
            time, priority, seq, callback, label = pop(heap)
            self._now = time
            self._processed += 1
            if tracer is not None:
                tracer.kernel_event(time, priority, seq, label)
            callback()
        if until is not None:
            self._advance_to(max(self._now, until))
        return self._now


@runtime_checkable
class EventSource(Protocol):
    """A scenario component that schedules events on the shared kernel.

    Sources own their state and result accumulators; the scenario only
    wires them to one kernel. ``prime`` must schedule the source's
    initial events (follow-ups are scheduled from inside callbacks).
    """

    def prime(self, kernel: SimKernel, scenario: "Scenario") -> None:
        """Schedule this source's initial events."""
        ...  # pragma: no cover - protocol
