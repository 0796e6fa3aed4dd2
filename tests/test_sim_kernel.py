"""Unit and property tests for the unified discrete-event kernel."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.exceptions import ConfigurationError, SimulationError
from repro.sim import (
    Priority,
    Scenario,
    SimEvent,
    SimKernel,
    clamp_warmup,
    smoke_scale,
)
from repro.telemetry import SpanTracer


def kernel_log(events):
    """``(time, priority, seq, label)`` of every kernel event a trace
    track recorded, in processing order."""
    return [
        (e["ts"] / 1e6, e["tid"], e["args"]["seq"], e["name"])
        for e in events
        if e.get("cat") == "kernel"
    ]


def traced_kernel():
    """A kernel recording onto a fresh track, and the track's events."""
    tracer = SpanTracer()
    return SimKernel(tracer=tracer.new_track("kernel")), tracer.events


@settings(max_examples=80, deadline=None)
@given(
    events=st.lists(
        st.tuples(
            st.floats(0.0, 100.0, allow_nan=False),
            st.sampled_from(list(Priority)),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_queue_pops_stable_sorted_order(events):
    """Dispatch order == stable sort by (time, priority, insertion order)."""
    kernel, recorded = traced_kernel()
    for index, (time, priority) in enumerate(events):
        kernel.schedule_at(time, lambda: None, priority, label=str(index))
    kernel.run()
    expected = sorted(
        range(len(events)), key=lambda i: (events[i][0], int(events[i][1]), i)
    )
    assert [int(entry[3]) for entry in kernel_log(recorded)] == expected


class TestSimKernel:
    def test_clock_starts_at_zero_and_advances(self):
        kernel = SimKernel()
        assert kernel.now == 0.0
        kernel.schedule_at(2.5, lambda: None)
        assert kernel.run() == 2.5
        assert kernel.now == 2.5

    def test_clock_cannot_move_backwards(self):
        kernel = SimKernel()
        kernel.schedule_at(3.0, lambda: None)
        kernel.run()
        kernel.schedule_at(5.0, lambda: None)
        with pytest.raises(SimulationError, match="backwards"):
            kernel.run(until=2.0)
        assert kernel.now == 3.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_time_raises(self, bad):
        kernel = SimKernel()
        with pytest.raises(SimulationError, match="must be finite"):
            kernel.schedule_at(bad, lambda: None)
        assert kernel.run() == 0.0
        assert kernel.processed_events == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_delay_raises(self, bad):
        kernel = SimKernel()
        fired = []
        with pytest.raises(SimulationError, match="must be finite"):
            kernel.schedule(bad, lambda: fired.append(True))
        assert kernel.run() == 0.0
        assert fired == []

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_until_raises(self, bad):
        kernel = SimKernel()
        kernel.schedule_at(1.0, lambda: None)
        with pytest.raises(SimulationError, match="must be finite"):
            kernel.run(until=bad)
        assert kernel.now == 0.0
        kernel.run()
        assert kernel.processed_events == 1

    def test_orders_by_time_then_priority_then_seq(self):
        kernel, recorded = traced_kernel()
        kernel.schedule_at(2.0, lambda: None, Priority.FAILURE, "late-failure")
        kernel.schedule_at(1.0, lambda: None, Priority.STEP, "early-step")
        kernel.schedule_at(1.0, lambda: None, Priority.FAILURE, "early-failure")
        kernel.schedule_at(1.0, lambda: None, Priority.STEP, "early-step-2")
        kernel.run()
        assert [entry[3] for entry in kernel_log(recorded)] == [
            "early-failure", "early-step", "early-step-2", "late-failure",
        ]

    def test_unorderable_callbacks_pop_in_push_order(self):
        """Tied ``(time, priority)`` events order by ``seq`` alone: the
        tuple comparison never reaches ``callback``, which here cannot
        be ordered at all."""
        kernel = SimKernel()
        seen = []

        class Unorderable:
            def __init__(self, index):
                self.index = index
                self.token = object()

            def __call__(self):
                seen.append(self.index)

        for index in range(20):
            kernel.schedule_at(1.0, Unorderable(index), Priority.STEP)
        with pytest.raises(TypeError):
            Unorderable(0) < Unorderable(1)
        kernel.run()
        assert seen == list(range(20))

    def test_events_are_named_tuples(self):
        kernel = SimKernel()
        callback = lambda: None  # noqa: E731
        event = kernel.schedule_at(1, callback, Priority.TRIGGER, "x")
        assert event == SimEvent(1.0, int(Priority.TRIGGER), 0, callback, "x")
        assert type(event.time) is float and type(event.priority) is int

    def test_declared_priority_order(self):
        # The ordering contract the scenario sources rely on: failures
        # before scheduling triggers before step execution before stream
        # drains; completions before arrivals before dispatches.
        assert Priority.FAILURE < Priority.TRIGGER < Priority.STEP
        assert (
            Priority.COMPLETION
            < Priority.ARRIVAL
            < Priority.STEP
            < Priority.STREAM
        )

    def test_simultaneous_events_resolve_by_priority(self):
        kernel = SimKernel()
        seen = []
        # Scheduled in the WRONG order on purpose.
        kernel.schedule_at(1.0, lambda: seen.append("step"), Priority.STEP)
        kernel.schedule_at(1.0, lambda: seen.append("trigger"), Priority.TRIGGER)
        kernel.schedule_at(1.0, lambda: seen.append("failure"), Priority.FAILURE)
        kernel.run()
        assert seen == ["failure", "trigger", "step"]

    def test_cannot_schedule_into_past(self):
        kernel = SimKernel()
        with pytest.raises(SimulationError):
            kernel.schedule(-1.0, lambda: None)
        kernel.schedule_at(2.0, lambda: None)
        kernel.run()
        with pytest.raises(SimulationError):
            kernel.schedule_at(1.0, lambda: None)

    def test_run_until_leaves_future_events(self):
        kernel = SimKernel()
        seen = []
        kernel.schedule_at(1.0, lambda: seen.append("early"))
        kernel.schedule_at(10.0, lambda: seen.append("late"))
        assert kernel.run(until=5.0) == 5.0
        assert seen == ["early"]
        kernel.run()
        assert seen == ["early", "late"]
        kernel.run()
        assert seen == ["early", "late"]

    def test_callbacks_schedule_followups(self):
        kernel = SimKernel()
        seen = []

        def first():
            seen.append("first")
            kernel.schedule(1.0, lambda: seen.append("second"))

        kernel.schedule_at(1.0, first)
        assert kernel.run() == 2.0
        assert seen == ["first", "second"]

    def test_event_budget_guard(self):
        kernel = SimKernel()

        def recur():
            kernel.schedule(1.0, recur)

        kernel.schedule(1.0, recur)
        with pytest.raises(SimulationError):
            kernel.run(max_events=50)

    def test_trace_records_processed_events(self):
        kernel, recorded = traced_kernel()
        kernel.schedule_at(1.0, lambda: None, Priority.STEP, label="b")
        kernel.schedule_at(1.0, lambda: None, Priority.FAILURE, label="a")
        kernel.run()
        assert [entry[3] for entry in kernel_log(recorded)] == ["a", "b"]
        assert kernel.processed_events == 2


class _SeededSource:
    """Toy source: schedules seeded-jittered events across the horizon."""

    def __init__(self, seed=0):
        self._seed = seed

    def prime(self, kernel, scenario):
        rng = np.random.default_rng(self._seed)
        for index, time in enumerate(
            rng.uniform(0.0, scenario.duration, size=25)
        ):
            kernel.schedule_at(
                time,
                lambda: None,
                priority=int(rng.integers(0, 50)),
                label=f"jitter[{index}]",
            )


class TestScenario:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Scenario(name="", sources=(_SeededSource(),))
        with pytest.raises(ConfigurationError):
            Scenario(name="x", sources=())
        with pytest.raises(ConfigurationError):
            Scenario(name="x", sources=(_SeededSource(),), duration=0)

    def test_same_seed_scenarios_identical_event_orderings(self):
        """The kernel determinism guarantee: byte-identical traces."""
        def trace(seed):
            scenario = Scenario(
                name="det", sources=(_SeededSource(seed),), duration=10.0
            )
            with telemetry.session(reuse=False) as session:
                scenario.run()
            return kernel_log(session.tracer.events)

        assert trace(7) == trace(7)
        assert trace(7) != trace(8)

    def test_run_honours_duration(self):
        scenario = Scenario(
            name="horizon", sources=(_SeededSource(),), duration=10.0
        )
        kernel = scenario.run()
        assert kernel.now == 10.0


class TestSmokeHelpers:
    def test_smoke_scale_ints_and_floats(self):
        assert smoke_scale(80, floor=25) == 25
        assert smoke_scale(400, floor=10) == 100
        assert isinstance(smoke_scale(400, floor=10), int)
        assert smoke_scale(100.0, floor=8) == 25.0
        with pytest.raises(ConfigurationError):
            smoke_scale(-1)

    def test_smoke_scale_never_enlarges(self):
        """A run already at CI scale must not grow under --smoke (a
        seconds-unit horizon would otherwise blow up against the
        step-unit default floor)."""
        assert smoke_scale(10, floor=150) == 10
        assert smoke_scale(0.0115, floor=8) == 0.0115
        assert smoke_scale(0.5, floor=8) == 0.5

    def test_experiment_scale_smoke_is_the_shared_policy(self):
        from repro.bench.harness import FULL, SMOKE

        assert SMOKE == FULL.smoke()
        assert SMOKE.num_steps == 25
        assert SMOKE.warmup == 8
        assert SMOKE.quality_steps == 150
        assert SMOKE.seeds == 1

    def test_clamp_warmup(self):
        assert clamp_warmup(5, 10) == 5
        assert clamp_warmup(10, 5) == 4
        assert clamp_warmup(3, 0) == 0


def _heap_order(schedule):
    """Reference drain: one ``heapq`` pop per event.

    ``schedule`` lists ``(time, priority, reschedule)`` in scheduling
    order; a popped event with ``reschedule`` set pushes one STREAM
    follow-up at its own time. Returns the dispatched ``(time, priority, seq)``
    sequence, with ``seq`` numbered like the kernel's counter.
    """
    heap = [(t, int(p), seq, r) for seq, (t, p, r) in enumerate(schedule)]
    heapq.heapify(heap)
    next_seq = len(heap)
    order = []
    while heap:
        time, priority, seq, reschedule = heapq.heappop(heap)
        order.append((time, priority, seq))
        if reschedule:
            heapq.heappush(heap, (time, int(Priority.STREAM), next_seq, False))
            next_seq += 1
    return order


class TestOrderingAndRestore:
    """Tied events dispatch in the ``(time, priority, seq)`` order of
    one heap pop per event, and a stopped run keeps every undispatched
    event queued."""

    def test_tied_group_dispatches_in_priority_then_seq_order(self):
        kernel = SimKernel()
        seen = []
        kernel.schedule_at(1.0, lambda: seen.append("step"), Priority.STEP)
        kernel.schedule_at(1.0, lambda: seen.append("fail"), Priority.FAILURE)
        kernel.schedule_at(1.0, lambda: seen.append("arrive"), Priority.ARRIVAL)
        kernel.schedule_at(1.0, lambda: seen.append("step2"), Priority.STEP)
        kernel.run()
        assert seen == ["fail", "arrive", "step", "step2"]

    def test_reschedule_at_current_time_joins_the_group(self):
        """The dispatch-at-now idiom: an event scheduled at the current
        time from inside a callback fires within the same timestamp, in
        (priority, seq) position."""
        kernel, recorded = traced_kernel()
        seen = []

        def arrival():
            seen.append("arrival")
            kernel.schedule_at(
                kernel.now, lambda: seen.append("dispatch"), Priority.STEP
            )

        kernel.schedule_at(2.0, arrival, Priority.ARRIVAL)
        kernel.schedule_at(2.0, lambda: seen.append("completion"), Priority.COMPLETION)
        kernel.schedule_at(2.0, lambda: seen.append("stream"), Priority.STREAM)
        kernel.run()
        assert seen == ["completion", "arrival", "dispatch", "stream"]
        assert [entry[:3] for entry in kernel_log(recorded)] == [
            (2.0, Priority.COMPLETION, 1),
            (2.0, Priority.ARRIVAL, 0),
            (2.0, Priority.STEP, 3),
            (2.0, Priority.STREAM, 2),
        ]

    def test_budget_exhaustion_mid_group_restores_remainder(self):
        kernel = SimKernel()
        seen = []
        for i in range(6):
            kernel.schedule_at(1.0, lambda i=i: seen.append(i), Priority.STEP)
        with pytest.raises(SimulationError):
            kernel.run(max_events=3)
        assert seen == [0, 1, 2]
        # The undispatched half of the group stays queued and a resumed
        # run drains it in the original order.
        assert kernel.processed_events == 3
        kernel.run()
        assert seen == [0, 1, 2, 3, 4, 5]

    def test_callback_exception_restores_undispatched_events(self):
        kernel = SimKernel()
        seen = []

        def boom():
            seen.append("boom")
            kernel.schedule_at(
                kernel.now, lambda: seen.append("rescheduled")
            )
            raise RuntimeError("callback failed")

        kernel.schedule_at(1.0, boom, Priority.FAILURE)
        kernel.schedule_at(1.0, lambda: seen.append("tied"), Priority.STEP)
        with pytest.raises(RuntimeError):
            kernel.run()
        # Both the tied group remainder AND the same-time event the
        # failing callback scheduled survive for a resumed run, which
        # drains them in (priority, seq) order: "tied" (seq 1) before
        # the later-scheduled "rescheduled" (seq 2).
        assert kernel.processed_events == 1
        kernel.run()
        assert seen == ["boom", "tied", "rescheduled"]

    def test_run_until_leaves_future_events(self):
        kernel = SimKernel()
        seen = []
        kernel.schedule_at(1.0, lambda: seen.append("a"))
        kernel.schedule_at(1.0, lambda: seen.append("b"), Priority.FAILURE)
        kernel.schedule_at(10.0, lambda: seen.append("late"))
        assert kernel.run(until=5.0) == 5.0
        assert seen == ["b", "a"]
        kernel.run()
        assert seen == ["b", "a", "late"]

    def test_singleton_groups_match_serial(self):
        kernel, recorded = traced_kernel()

        def tick(t):
            if t < 5.0:
                kernel.schedule(1.0, lambda: tick(t + 1.0))

        kernel.schedule_at(0.0, lambda: tick(0.0))
        kernel.run()
        assert [entry[:3] for entry in kernel_log(recorded)] == [
            (float(t), Priority.STEP, t) for t in range(6)
        ]


@settings(max_examples=120, deadline=None)
@given(
    events=st.lists(
        st.tuples(
            # A tiny time domain forces heavy timestamp collisions.
            st.sampled_from([0.0, 1.0, 2.0]),
            st.sampled_from(list(Priority)),
            # Whether the callback re-schedules a follow-up at now.
            st.booleans(),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_drain_trace_matches_heap_order(events):
    """Property: for random tie-heavy schedules whose callbacks may
    re-schedule at the current instant, the kernel dispatches the exact
    (time, priority, seq) sequence of one heap pop per event."""
    kernel, recorded = traced_kernel()

    def make(index, reschedule):
        def callback():
            if reschedule:
                kernel.schedule_at(
                    kernel.now,
                    lambda: None,
                    Priority.STREAM,
                    label=f"follow-{index}",
                )

        return callback

    for index, (time, priority, reschedule) in enumerate(events):
        kernel.schedule_at(
            time, make(index, reschedule), priority, label=str(index)
        )
    kernel.run()
    assert [entry[:3] for entry in kernel_log(recorded)] == _heap_order(events)
