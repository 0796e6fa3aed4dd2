"""The unified discrete-event simulation kernel.

Every loop in this repository that advances simulated time -- training
steps, elasticity schedules, best-effort adjustment drains, serving
arrivals and batch completions -- runs on ONE substrate: a
:class:`SimClock` driven by an :class:`EventQueue` with deterministic
``(time, priority, seq)`` ordering, so any mix of workloads composes on a
shared clock (see ``docs/simulation.md``). The one other step loop is
the plain inline ``engine.step`` baseline the perf harness times the
kernel against.

Ordering rules:

* events fire in nondecreasing ``time`` order;
* simultaneous events resolve by declared :class:`Priority` -- failures
  before scheduling triggers before step execution before stream drains
  (and, on the serving side, completions before arrivals before
  dispatches);
* events equal in both time and priority fire in scheduling order
  (``seq`` is a monotone counter assigned by the queue), so a seeded
  simulation is bit-reproducible.

:class:`EventSource` is the protocol scenario components implement:
:meth:`~EventSource.prime` receives the kernel and the owning
:class:`~repro.sim.scenario.Scenario` and schedules the source's initial
events; follow-up events are scheduled from callbacks.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from enum import IntEnum
from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

from repro.exceptions import SimulationError
from repro.telemetry.tracing import KernelTraceSink, TraceTrack

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


@dataclass(order=True, frozen=True)
class SimEvent:
    """One scheduled callback, ordered by ``(time, priority, seq)``."""

    time: float
    priority: int
    seq: int
    callback: Callable[[], None] = field(compare=False)
    label: str = field(default="", compare=False)


class SimClock:
    """Monotone simulation clock (seconds or steps; the scenario decides),
    starting at zero."""

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def advance_to(self, time: float) -> None:
        """Move the clock forward; moving backwards is a kernel bug."""
        if time < self._now:
            raise SimulationError(
                f"clock cannot move backwards ({self._now} -> {time})"
            )
        self._now = float(time)

    def __repr__(self) -> str:
        return f"SimClock(now={self._now})"


class EventQueue:
    """Priority queue of :class:`SimEvent` with stable tie-breaking.

    The queue assigns the ``seq`` component itself, so two events pushed
    at the same ``(time, priority)`` always pop in push order regardless
    of heap internals -- the property the determinism tests assert.
    """

    def __init__(self) -> None:
        self._heap: list[SimEvent] = []
        self._seq = itertools.count()

    def push(
        self,
        time: float,
        priority: int,
        callback: Callable[[], None],
        label: str = "",
    ) -> SimEvent:
        event = SimEvent(
            time=float(time),
            priority=int(priority),
            seq=next(self._seq),
            callback=callback,
            label=label,
        )
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> SimEvent:
        if not self._heap:
            raise SimulationError("cannot pop from an empty event queue")
        return heapq.heappop(self._heap)

    def peek(self) -> SimEvent:
        if not self._heap:
            raise SimulationError("cannot peek into an empty event queue")
        return self._heap[0]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class SimKernel:
    """The event loop: a :class:`SimClock` plus an :class:`EventQueue`.

    Args:
        record_trace: Keep a ``(time, priority, seq, label)`` tuple per
            processed event in :attr:`trace`. Used by the determinism
            tests (same-seed scenarios must produce byte-identical
            traces); off by default to keep long simulations lean.
        tracer: A :class:`~repro.telemetry.tracing.TraceTrack` to mirror
            every processed event into as a Chrome trace event (one
            zero-duration complete event on the lane of its priority).
            Sources read it back via :attr:`tracer` to emit their own
            spans on the same track. ``record_trace`` and ``tracer``
            share one observation path
            (:class:`~repro.telemetry.tracing.KernelTraceSink`); with
            neither, the loop pays a single ``is not None`` branch per
            event.
    """

    def __init__(
        self,
        record_trace: bool = False,
        tracer: TraceTrack | None = None,
    ) -> None:
        self._clock = SimClock()
        self._queue = EventQueue()
        self._processed = 0
        self._sink: KernelTraceSink | None = (
            KernelTraceSink(record_trace, tracer)
            if (record_trace or tracer is not None)
            else None
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._clock.now

    @property
    def processed_events(self) -> int:
        return self._processed

    @property
    def trace(self) -> tuple[tuple[float, int, int, str], ...]:
        """Processed-event log (empty unless ``record_trace`` was set)."""
        if self._sink is None or self._sink.tuples is None:
            return ()
        return tuple(self._sink.tuples)

    @property
    def tracer(self) -> TraceTrack | None:
        """The Chrome trace track this kernel mirrors into, if any.

        Sources use it to emit their own spans (pipeline phases,
        serving batches, decision instants) on the kernel's track."""
        return self._sink.track if self._sink is not None else None

    def __len__(self) -> int:
        return len(self._queue)

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
        """Schedule ``callback`` at absolute simulation time ``time``."""
        if time < self._clock.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self._clock.now}"
            )
        return self._queue.push(time, priority, callback, label)

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = Priority.STEP,
        label: str = "",
    ) -> SimEvent:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self._queue.push(
            self._clock.now + delay, priority, callback, label
        )

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

        Each loop pops one event off the heap, so dispatch follows the
        ``(time, priority, seq)`` order by construction. A callback that
        raises, or an exhausted budget, leaves every undispatched event
        queued for a resumed run.
        """
        queue = self._queue
        sink = self._sink
        while queue:
            if self._processed >= max_events:
                raise SimulationError(
                    f"event budget exhausted after {max_events} events"
                )
            if until is not None and queue.peek().time > until:
                self._clock.advance_to(until)
                return self._clock.now
            event = queue.pop()
            self._clock.advance_to(event.time)
            self._processed += 1
            if sink is not None:
                sink.observe(
                    event.time, event.priority, event.seq, event.label
                )
            event.callback()
        if until is not None:
            self._clock.advance_to(max(self._clock.now, until))
        return self._clock.now


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
