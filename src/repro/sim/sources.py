"""Event sources: the repo's workloads re-hosted on the shared kernel.

Each class here turns one formerly-bespoke loop into an
:class:`~repro.sim.kernel.EventSource`:

* :class:`PipelineStepSource` / :class:`SystemStepSource` -- training
  steps (the multi-layer engine's three step phases become TRIGGER /
  STEP / STREAM events at the step's tick; single-layer systems become
  plain STEP events);
* :class:`TimedClusterEventSource` -- cluster events keyed by simulated
  *seconds*, which the old step-indexed loops could not express;
* :class:`MultiTenantServingSource` -- request arrival / batch dispatch
  / batch completion on one clock (the "advance to next arrival vs.
  completion" logic the serving engine used to hand-roll), with
  priority preemption of in-flight work;
* :class:`StreamBudgetSource` -- periodic bandwidth grants draining the
  engines' best-effort adjustment streams, so background migration
  traffic competes for bandwidth as an explicit budgeted event stream;
* :class:`AutoscalerSource` -- the closed capacity loop: periodic
  CONTROL ticks read the serving SLO signals
  (:class:`~repro.core.trigger.TriggerSignals`) and emit ``provision`` /
  ``revoke`` capacity events -- scale-ups arrive late and cold after a
  provisioning delay, removals are immediate -- and revocation notices
  from a churn schedule are answered inside the notice window (drain
  doomed devices, request replacements). See ``docs/autoscaling.md``.

Sources are duck-typed over the engine/trace/queue objects they drive
(no imports from :mod:`repro.runtime` or :mod:`repro.serving`), so this
module sits below both and either side can compose with the other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro import telemetry
from repro.cluster.events import ClusterEvent
from repro.exceptions import SimulationError
from repro.sim.kernel import Priority, SimKernel
from repro.telemetry.tracing import TID_PIPELINE, TID_SERVING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.scenario import Scenario


def _horizon(scenario: "Scenario", limit: int) -> int:
    """Steps a step-indexed source should schedule under ``scenario``."""
    if scenario.duration is None:
        return limit
    return min(limit, int(scenario.duration))


class PipelineStepSource:
    """Multi-layer engine steps as kernel events.

    Every step ``t`` of the trace schedules three events at tick ``t``:

    * ``(t, TRIGGER)`` -- the schedule phase: each layer's Scheduler
      observes its assignment and emits placement actions;
    * ``(t, STEP)`` -- the execute phase: routing over the active
      placements and the pipelined whole-transformer step;
    * ``(t, STREAM)`` -- the commit phase: the best-effort adjustment
      streams receive the step's duration as transfer budget and ready
      actions commit.

    A step-keyed elasticity schedule is the engine's own: the schedule
    phase applies the events due at ``t`` before the layers observe.

    Attributes:
        results: Per-step :class:`~repro.runtime.pipeline.PipelineStepResult`
            objects, appended as each step's commit phase completes.
    """

    def __init__(self, engine, trace) -> None:
        self._engine = engine
        self._trace = trace
        self.results: list = []

    def prime(self, kernel: SimKernel, scenario: "Scenario") -> None:
        for t in range(_horizon(scenario, self._trace.num_steps)):
            self._schedule_step(kernel, t)

    def _schedule_step(self, kernel: SimKernel, t: int) -> None:
        engine, trace = self._engine, self._trace
        pending: list = []
        # The kernel's trace track (None when tracing is off). Only this
        # source writes the pipeline lane, so the B/E pairs below are
        # properly nested by construction.
        track = kernel.tracer

        def schedule_phase() -> None:
            if track is not None:
                track.begin(f"step[{t}]", kernel.now, TID_PIPELINE)
                track.begin("schedule", kernel.now, TID_PIPELINE)
            pending.append(engine.step_schedule(trace.step(t), t))
            if track is not None:
                track.end("schedule", kernel.now, TID_PIPELINE)

        def execute_phase() -> None:
            if track is not None:
                track.begin("execute", kernel.now, TID_PIPELINE)
            engine.step_execute(pending[0])
            if track is not None:
                track.end("execute", kernel.now, TID_PIPELINE)

        def commit_phase() -> None:
            if track is not None:
                track.begin("commit", kernel.now, TID_PIPELINE)
            self.results.append(engine.step_commit(pending[0]))
            if track is not None:
                track.end("commit", kernel.now, TID_PIPELINE)
                track.end(f"step[{t}]", kernel.now, TID_PIPELINE)

        kernel.schedule_at(
            t, schedule_phase, Priority.TRIGGER, label=f"step[{t}].schedule"
        )
        kernel.schedule_at(
            t, execute_phase, Priority.STEP, label=f"step[{t}].execute"
        )
        kernel.schedule_at(
            t, commit_phase, Priority.STREAM, label=f"step[{t}].commit"
        )


class SystemStepSource:
    """Single-layer :class:`~repro.baselines.base.MoESystem` steps.

    The seed systems expose one atomic ``step``; each becomes a single
    ``(t, STEP)`` event.
    """

    def __init__(self, system, trace) -> None:
        self._system = system
        self._trace = trace
        self.results: list = []

    def prime(self, kernel: SimKernel, scenario: "Scenario") -> None:
        system, trace = self._system, self._trace
        for t in range(_horizon(scenario, trace.num_steps)):
            kernel.schedule_at(
                t,
                lambda t=t: self.results.append(system.step(trace.step(t), t)),
                Priority.STEP,
                label=f"step[{t}]",
            )


class TimedClusterEventSource:
    """Cluster events keyed by simulated seconds (not step indices).

    The payoff of the shared kernel: a failure at ``t=1.25s`` lands
    between whatever batches/steps surround that instant, instead of
    being quantized to a step boundary. Events past the scenario horizon
    never fire.

    Attributes:
        applied: ``(time, event)`` pairs actually delivered.
    """

    def __init__(self, engine, timed_events: Sequence[tuple[float, object]]) -> None:
        self._engine = engine
        self._timed_events = tuple(timed_events)
        self.applied: list[tuple[float, object]] = []

    def prime(self, kernel: SimKernel, scenario: "Scenario") -> None:
        engine = self._engine
        for time, event in self._timed_events:
            if scenario.duration is not None and time > scenario.duration:
                continue

            def deliver(time=time, event=event) -> None:
                engine.apply_cluster_events((event,), when=time)
                self.applied.append((time, event))
                tel = telemetry.current()
                if tel is not None:
                    tel.registry.counter(
                        "cluster.events", kind=event.kind
                    ).inc()
                    tel.decision(time, event.kind, f"gpu[{event.gpu}]")

            kernel.schedule_at(
                time,
                deliver,
                Priority.FAILURE,
                label=f"cluster[{event.kind}@{time:g}]",
            )


class MultiTenantServingSource:
    """Arrival / dispatch / completion events of one batch server.

    Owns the "advance the clock to the next arrival vs. the in-flight
    batch's completion" logic every serving loop needs: each request is
    an ARRIVAL event, the server dispatches the next micro-batch as a
    STEP event whenever it is idle and the queue is non-empty, and the
    batch's modelled duration schedules a COMPLETION event that frees
    the server. Priorities fix the admission order at any instant:
    completions free the server first, then arrivals are admitted, then
    the dispatch forms its batch.

    The serve callback is split so preempted batches can be
    un-recorded: ``dispatch(batch, now, index)`` models and times the
    batch, but its requests are only accounted when
    ``complete(batch, start, execute)`` fires. An arrival of strictly
    higher priority than a preemptible in-flight batch preempts it: the
    scheduled completion is invalidated (a generation counter -- the
    kernel has no event cancellation), the batch's requests are
    re-queued at the *front* of their sub-queues with their fairness
    credit refunded, and the partial execution is wasted work
    (:attr:`wasted_seconds`). Preempted requests are never dropped:
    they re-dispatch later, paying their full execute time again and a
    queue time measured from their original arrival. A single-stream
    server is the one-tenant case, where no arrival can outrank the
    in-flight batch.

    Args:
        requests: The stream (any order; sorted by ``(arrival, index)``).
        queue: A :class:`~repro.serving.admission.PriorityAdmissionQueue`
            -shaped object (``offer`` / ``next_batch`` /
            ``queued_requests`` / ``highest_queued_priority`` /
            ``batch_priority`` / ``batch_preemptible`` / ``requeue``).
        dispatch: ``dispatch(batch, now, batch_index) -> execute_seconds``
            -- the model/engine half of the server.
        complete: ``complete(batch, start, execute)`` for every batch
            that genuinely finished (never for a preempted one).
        preemption: Whether higher-priority arrivals preempt.

    Attributes:
        rejected: Requests turned away by admission backpressure.
        num_batches: Micro-batches dispatched so far.
        last_completion: Simulated time the latest batch finished.
        preemptions: In-flight batches preempted.
        preempted_requests: Requests re-queued by preemptions.
        wasted_seconds: Partial execute time thrown away.
    """

    def __init__(
        self,
        requests: Sequence,
        queue,
        dispatch: Callable[[tuple, float, int], float],
        complete: Callable[[tuple, float, float], None],
        preemption: bool = True,
    ) -> None:
        self._requests = tuple(
            sorted(requests, key=lambda r: (r.arrival, r.index))
        )
        self._queue = queue
        self._dispatch_cb = dispatch
        self._complete_cb = complete
        self._preemption = bool(preemption)
        self._kernel: SimKernel | None = None
        self._busy = False
        self._dispatch_scheduled = False
        # (batch, start, execute, priority, preemptible) of the batch on
        # the server, or None when idle.
        self._inflight: tuple | None = None
        # Bumped on every preemption; a completion scheduled for an
        # older generation is stale and must not fire.
        self._generation = 0
        self.rejected: list = []
        self.num_batches = 0
        self.last_completion = 0.0
        self.preemptions = 0
        self.preempted_requests = 0
        self.wasted_seconds = 0.0

    def prime(self, kernel: SimKernel, scenario: "Scenario") -> None:
        self._kernel = kernel
        for request in self._requests:
            kernel.schedule_at(
                request.arrival,
                lambda request=request: self._on_arrival(request),
                Priority.ARRIVAL,
                label=f"arrival[{request.index}]",
            )

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _on_arrival(self, request) -> None:
        if not self._queue.offer(request):
            self.rejected.append(request)
            return
        if (
            self._preemption
            and self._busy
            and self._inflight[4]  # the in-flight batch is preemptible
        ):
            queued = self._queue.highest_queued_priority()
            if queued is not None and queued > self._inflight[3]:
                self._preempt_inflight()
        self._maybe_dispatch()

    def _maybe_dispatch(self) -> None:
        if self._busy or self._dispatch_scheduled:
            return
        if not self._queue.queued_requests:
            return
        self._dispatch_scheduled = True
        self._kernel.schedule_at(
            self._kernel.now,
            self._dispatch,
            Priority.STEP,
            label=f"dispatch[{self.num_batches}]",
        )

    def _dispatch(self) -> None:
        self._dispatch_scheduled = False
        if self._busy or not self._queue.queued_requests:
            return
        batch = self._queue.next_batch()
        now = self._kernel.now
        execute = self._dispatch_cb(batch, now, self.num_batches)
        self._busy = True
        self._observe_batch(batch, execute)
        self._inflight = (
            batch,
            now,
            execute,
            self._queue.batch_priority(batch),
            self._queue.batch_preemptible(batch),
        )
        self.num_batches += 1
        generation = self._generation
        self._kernel.schedule(
            execute,
            lambda: self._finish(generation),
            Priority.COMPLETION,
            label=f"complete[{self.num_batches - 1}]",
        )

    def _observe_batch(self, batch, execute: float) -> None:
        """Telemetry tap at dispatch: batch counters plus one serving
        span with the batch's modelled duration (a no-op when off)."""
        tel = telemetry.current()
        if tel is None:
            return
        tel.registry.counter("serving.batches").inc()
        tel.registry.counter("serving.batch_requests").inc(len(batch))
        track = self._kernel.tracer
        if track is not None:
            track.complete(
                f"batch[{self.num_batches}]",
                self._kernel.now,
                execute,
                TID_SERVING,
                cat="serving",
                args={"requests": len(batch)},
            )

    def _finish(self, generation: int) -> None:
        if generation != self._generation:
            return  # stale completion of a batch preempted mid-flight
        batch, start, execute, _, _ = self._inflight
        self._inflight = None
        self._busy = False
        self.last_completion = self._kernel.now
        self._complete_cb(batch, start, execute)
        self._maybe_dispatch()

    def _preempt_inflight(self) -> None:
        batch, start, _, _, _ = self._inflight
        elapsed = self._kernel.now - start
        self._generation += 1  # invalidate the scheduled completion
        self._inflight = None
        self._busy = False
        self._queue.requeue(batch)
        self.preemptions += 1
        self.preempted_requests += len(batch)
        self.wasted_seconds += elapsed
        tel = telemetry.current()
        if tel is not None:
            tel.registry.counter("serving.preemptions").inc()
            tel.registry.counter(
                "serving.preempted_requests"
            ).inc(len(batch))
            tel.decision(
                self._kernel.now,
                "preempt",
                f"batch[{self.num_batches - 1}]",
                requests=len(batch),
                wasted_seconds=elapsed,
            )


class StreamBudgetSource:
    """Periodic bandwidth grants for the best-effort adjustment streams.

    When a scenario runs the engine with in-step stream advancement
    deferred (``stream_budget=0``), this source is what pays for queued
    placement transfers: every ``interval`` simulated seconds it grants
    ``bandwidth * interval`` seconds of stream time via the engine's
    ``advance_streams``. A ``bandwidth`` below 1.0 models background
    migration traffic competing with foreground work for the links.

    Requires a scenario with a finite ``duration`` (grants are laid out
    across the whole horizon up front).

    Attributes:
        grants: Budget events fired.
        committed: Placement actions the grants have committed.
    """

    def __init__(self, engine, interval: float, bandwidth: float = 1.0) -> None:
        if interval <= 0:
            raise SimulationError(f"grant interval must be > 0, got {interval}")
        if bandwidth <= 0:
            raise SimulationError(f"bandwidth must be > 0, got {bandwidth}")
        self._engine = engine
        self._interval = float(interval)
        self._bandwidth = float(bandwidth)
        self.grants = 0
        self.committed = 0

    def prime(self, kernel: SimKernel, scenario: "Scenario") -> None:
        if scenario.duration is None:
            raise SimulationError(
                "StreamBudgetSource requires a scenario with a finite duration"
            )
        budget = self._bandwidth * self._interval

        def grant() -> None:
            committed = self._engine.advance_streams(budget)
            self.committed += committed
            self.grants += 1
            tel = telemetry.current()
            if tel is not None:
                tel.registry.counter("budget.grants").inc()
                tel.registry.counter(
                    "budget.committed_actions"
                ).inc(committed)

        ticks = int(scenario.duration / self._interval)
        for tick in range(1, ticks + 1):
            kernel.schedule_at(
                tick * self._interval,
                grant,
                Priority.STREAM,
                label=f"budget[{tick}]",
            )


class AutoscalerSource:
    """Closed-loop capacity controller on the shared kernel.

    Every ``interval`` simulated seconds a ``(t, CONTROL)`` tick reads
    the current serving signals through ``probe`` (a callable returning
    a :class:`~repro.core.trigger.TriggerSignals`-shaped object) and
    drives the pool through capacity events:

    * **Scale-up** -- when the signals show SLO pressure (rolling p99
      above ``p99_target``, queue depth above ``queue_limit_tokens``, or
      rolling attainment below ``attainment_floor``), the next standby
      device is requested. It joins ``provisioning_delay`` seconds
      later, empty and cold (a ``provision`` event the runtime answers
      with a recovery-style refill) -- new nodes arrive late, exactly
      like real cloud capacity.
    * **Scale-down** -- after ``scale_down_after`` consecutive calm
      ticks (no pressure signal and the queue near-empty), the most
      recently provisioned device is revoked *immediately* and returned
      to the standby pool. Only devices this controller provisioned are
      ever removed, so the pool never shrinks below its seed size by
      autoscaling alone.
    * **Revocation notices** -- a churn schedule calls
      :meth:`on_revocation_notice` when spot devices receive their
      reclamation warning; the controller drains them NOW (emergency
      copies via the engine's ``notify_revocation``) and requests one
      standby replacement per doomed device, racing the notice window.

    Heterogeneous pools: ``speed_factors`` maps a standby device to the
    compute factor it joins with (a slower accelerator generation below
    1.0); unlisted devices join at full speed.

    Attributes:
        decisions: ``(time, action, gpu)`` tuples -- ``action`` is one
            of ``"request"``, ``"provision"``, ``"revoke"``,
            ``"notice"``.
        scale_ups: Provision events delivered to the engine.
        scale_downs: Autoscaler-initiated revocations.
        notices: Revocation notices received.
        drain_seconds: Blocking seconds spent on notice-window drains.
    """

    def __init__(
        self,
        engine,
        probe: Callable[[], object],
        scalable_gpus: Sequence[int],
        interval: float,
        provisioning_delay: float,
        p99_target: float,
        queue_limit_tokens: float | None = None,
        attainment_floor: float | None = None,
        scale_down_after: int = 0,
        scale_down_margin: float = 0.5,
        speed_factors: Mapping[int, float] | None = None,
    ) -> None:
        if interval <= 0:
            raise SimulationError(f"tick interval must be > 0, got {interval}")
        if provisioning_delay < 0:
            raise SimulationError(
                f"provisioning delay must be >= 0, got {provisioning_delay}"
            )
        if p99_target <= 0:
            raise SimulationError(f"p99_target must be > 0, got {p99_target}")
        if not 0 < scale_down_margin <= 1.0:
            raise SimulationError(
                f"scale_down_margin must be in (0, 1], got {scale_down_margin}"
            )
        self._engine = engine
        self._probe = probe
        self._standby: list[int] = [int(g) for g in scalable_gpus]
        self._interval = float(interval)
        self._delay = float(provisioning_delay)
        self._p99_target = float(p99_target)
        self._queue_limit = (
            None if queue_limit_tokens is None else float(queue_limit_tokens)
        )
        self._attainment_floor = (
            None if attainment_floor is None else float(attainment_floor)
        )
        self._scale_down_after = int(scale_down_after)
        self._scale_down_margin = float(scale_down_margin)
        self._speed_factors = dict(speed_factors or {})
        self._kernel: SimKernel | None = None
        self._horizon: float | None = None
        self._scaled_up: list[int] = []  # LIFO scale-down order
        self._calm_ticks = 0
        self.decisions: list[tuple[float, str, int]] = []
        self.scale_ups = 0
        self.scale_downs = 0
        self.notices = 0
        self.drain_seconds = 0.0

    #: Decision-log action -> control-plane timeline kind.
    _TIMELINE_KINDS = {
        "request": "scale_request",
        "provision": "provision",
        "revoke": "revoke",
        "notice": "revocation_notice",
    }

    @property
    def provisioned_gpus(self) -> tuple[int, ...]:
        """Devices currently in the pool because this controller added them."""
        return tuple(self._scaled_up)

    def _record_decision(self, time: float, action: str, gpu: int) -> None:
        """Append to :attr:`decisions` and tap the telemetry layer."""
        self.decisions.append((time, action, gpu))
        tel = telemetry.current()
        if tel is not None:
            tel.registry.counter(
                "autoscaler.decisions", action=action
            ).inc()
            tel.decision(
                time,
                self._TIMELINE_KINDS.get(action, action),
                f"gpu[{gpu}]",
            )

    def prime(self, kernel: SimKernel, scenario: "Scenario") -> None:
        if scenario.duration is None:
            raise SimulationError(
                "AutoscalerSource requires a scenario with a finite duration"
            )
        self._kernel = kernel
        self._horizon = float(scenario.duration)
        ticks = int(scenario.duration / self._interval)
        for tick in range(1, ticks + 1):
            kernel.schedule_at(
                tick * self._interval,
                self._evaluate,
                Priority.CONTROL,
                label=f"autoscale[{tick}]",
            )

    # ------------------------------------------------------------------
    # Control loop
    # ------------------------------------------------------------------
    def _pressure(self, signals) -> bool:
        p99 = getattr(signals, "p99_latency", None)
        if p99 is not None and p99 > self._p99_target:
            return True
        queued = getattr(signals, "queue_tokens", None)
        if (
            self._queue_limit is not None
            and queued is not None
            and queued > self._queue_limit
        ):
            return True
        attainment = getattr(signals, "slo_attainment", None)
        return (
            self._attainment_floor is not None
            and attainment is not None
            and attainment < self._attainment_floor
        )

    def _calm(self, signals) -> bool:
        p99 = getattr(signals, "p99_latency", None)
        if p99 is None or p99 > self._scale_down_margin * self._p99_target:
            return False
        queued = getattr(signals, "queue_tokens", None)
        if self._queue_limit is not None and (
            queued is None or queued > self._scale_down_margin * self._queue_limit
        ):
            return False
        attainment = getattr(signals, "slo_attainment", None)
        if self._attainment_floor is not None and (
            attainment is None or attainment < self._attainment_floor
        ):
            return False
        return True

    def _evaluate(self) -> None:
        signals = self._probe()
        if self._pressure(signals):
            self._calm_ticks = 0
            self._request_capacity(1)
            return
        if self._scale_down_after <= 0 or not self._calm(signals):
            self._calm_ticks = 0
            return
        self._calm_ticks += 1
        if self._calm_ticks >= self._scale_down_after and self._scaled_up:
            self._calm_ticks = 0
            self._release_newest()

    def _request_capacity(self, count: int) -> int:
        """Request up to ``count`` standby devices; returns how many."""
        requested = 0
        now = self._kernel.now
        while requested < count and self._standby:
            gpu = self._standby.pop(0)
            self._record_decision(now, "request", gpu)
            arrive_at = now + self._delay
            if self._horizon is not None and arrive_at > self._horizon:
                # The device would join after the scenario ends; the
                # request still counts as provisioned intent but never
                # delivers (mirrors TimedClusterEventSource's horizon).
                requested += 1
                continue
            self._kernel.schedule(
                self._delay,
                lambda gpu=gpu: self._deliver_provision(gpu),
                Priority.FAILURE,
                label=f"provision[{gpu}]",
            )
            requested += 1
        return requested

    def _deliver_provision(self, gpu: int) -> None:
        factor = float(self._speed_factors.get(gpu, 1.0))
        state = self._engine.cluster_state
        if state is not None and state.is_alive(gpu):
            return  # another source raced us; nothing to deliver
        event = ClusterEvent(step=0, kind="provision", gpu=gpu, factor=factor)
        self._engine.apply_cluster_events((event,), when=self._kernel.now)
        self._scaled_up.append(gpu)
        self.scale_ups += 1
        self._record_decision(self._kernel.now, "provision", gpu)

    def _release_newest(self) -> None:
        gpu = self._scaled_up.pop()
        state = self._engine.cluster_state
        if state is None or not state.is_alive(gpu):
            return  # already revoked by the churn stream
        event = ClusterEvent(step=0, kind="revoke", gpu=gpu)
        self._engine.apply_cluster_events((event,), when=self._kernel.now)
        self._standby.append(gpu)  # reusable standby capacity
        self.scale_downs += 1
        self._record_decision(self._kernel.now, "revoke", gpu)

    # ------------------------------------------------------------------
    # Churn integration
    # ------------------------------------------------------------------
    def on_revocation_notice(self, gpus: Sequence[int]) -> None:
        """React inside a spot revocation-notice window.

        Drains the doomed devices immediately (emergency replica copies
        through the engine) and requests one standby replacement per
        noticed device. Replacements still pay the provisioning delay,
        so a notice window shorter than the delay leaves a capacity gap
        the degradation path has to absorb.
        """
        doomed = [int(g) for g in gpus]
        if not doomed:
            return
        self.notices += 1
        now = self._kernel.now
        for gpu in doomed:
            self._record_decision(now, "notice", gpu)
            if gpu in self._scaled_up:
                self._scaled_up.remove(gpu)  # reclaimed, not reusable
        self.drain_seconds += self._engine.notify_revocation(tuple(doomed))
        self._calm_ticks = 0
        self._request_capacity(len(doomed))
