"""The benchmark's two workloads, driven through the public API only.

Each workload is built in two phases.  :meth:`setup` builds the engine,
profile and trace or request stream from the seed; :meth:`measure` runs
the timed work, checks the program's outputs, and returns an
:class:`Outcome`.  The work a run does is fixed by ``seconds`` (through
the per-workload calibration constants below), never by the wall clock,
so the simulated results are a pure function of the seed and the run
length.

When handed a :class:`~perfbench.spans.Tracer`, :meth:`measure` wraps
the public methods of the objects :meth:`setup` built and records a span
per call; with the :class:`~perfbench.spans.NullTracer` nothing is
wrapped.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from perfbench.spans import MEASURE_SPAN
from repro.bench.harness import cluster_for
from repro.bench.serving import probe_batch_seconds
from repro.cluster.profiler import Profiler
from repro.cluster.topology import ClusterTopology
from repro.config import (
    MoEModelConfig,
    WorkloadConfig,
    auto_slots_per_gpu,
)
from repro.core.cost_model import MoECostModel
from repro.core.delta import DeltaStepCost
from repro.core.migration import MigrationPlanner
from repro.core.placement import Placement
from repro.core.policy import PolicyMaker
from repro.exceptions import PlacementError
from repro.serving.admission import BatchingConfig
from repro.serving.baseline import build_multitenant_serving
from repro.serving.engine import TopicRoutingModel
from repro.serving.requests import (
    RequestStreamConfig,
    TenantSpec,
    merge_tenant_requests,
)
from repro.serving.slo import SLOConfig, TenantClass
from repro.sim import MultiTenantServingSource, Scenario
from repro.sim.kernel import SimKernel
from repro.workload.synthetic import DriftingRoutingGenerator

#: Work per second of ``--seconds``, calibrated on a 2-core x86 host so
#: one run measures about that long there.
PLAN_SUB_RUNS_PER_SECOND = 0.25
SERVE_SUB_RUNS_PER_SECOND = 1.2

#: Sub-run ``i`` of a run with seed ``s`` uses seed ``1000 * s + 10 * i``.
#: The program derives a few neighbouring seeds from each seed it gets
#: (tenant streams at ``+1``/``+2``, topic profiles at ``+topic``), so
#: adjacent sub-runs sit 10 apart to share none of them.
SUB_SEED_RUN_STRIDE = 1000
SUB_SEED_STRIDE = 10


@dataclass
class Outcome:
    """What one timed run produced.

    Attributes:
        attempted: Operations run (steps, planner rounds or requests).
        failed: Operations whose correctness check failed.
        measure_s: Host seconds of the timed region.
        rate: Operations per host second (the workload's throughput).
        sim: Simulated results, deterministic per seed.
        counters: Per-layer counters read from public accessors and
            from return values at the traced boundaries.
    """

    attempted: int
    failed: int
    measure_s: float
    rate: float
    sim: dict[str, float]
    counters: dict[str, float]


class _Hooks:
    """Counters taken from return values at the traced boundaries."""

    def __init__(self) -> None:
        self.plans = 0
        self.beneficial = 0
        self.moves = 0
        self.localities: list[float] = []
        self.sim_a2a = 0.0
        self.sim_compute = 0.0
        self.sim_sync = 0.0

    def on_plan(self, decision) -> None:
        self.plans += 1
        self.beneficial += bool(decision.beneficial)

    def on_moves(self, moves) -> None:
        self.moves += len(moves)

    def on_route(self, plan) -> None:
        self.localities.append(plan.locality_fraction)

    def on_timing(self, timing) -> None:
        self.sim_a2a += timing.a2a_time
        self.sim_compute += timing.compute_time
        self.sim_sync += timing.sync_time

    def counters(self) -> dict[str, float]:
        return {
            "policy.beneficial_rate": (
                self.beneficial / self.plans if self.plans else 0.0
            ),
            "migration.moves": float(self.moves),
            "router.locality": (
                float(np.mean(self.localities)) if self.localities else 0.0
            ),
            "executor.sim_a2a_s": self.sim_a2a,
            "executor.sim_compute_s": self.sim_compute,
            "executor.sim_sync_s": self.sim_sync,
        }


def _wrap_planners(tracer, policy, migration, hooks: _Hooks, seen: set) -> None:
    tracer.wrap(policy, "make_plan", "policy.make_plan", on_return=hooks.on_plan)
    tracer.wrap(migration, "plan", "migration.plan", on_return=hooks.on_moves)
    # Policy Maker and Migrate share one delta evaluator; wrap it once.
    for delta in (policy.delta, migration.delta):
        if delta is not None and id(delta) not in seen:
            seen.add(id(delta))
            tracer.wrap(delta, "rebase", "delta.rebase")


def _instrument_engine(tracer, engine, hooks: _Hooks) -> None:
    """Span every public engine boundary a step crosses."""

    def enter_step(assignments, step_index, *args, **kwargs):
        tracer.step = step_index

    tracer.wrap(engine, "step_schedule", "pipeline.schedule", on_call=enter_step)
    tracer.wrap(engine, "step_execute", "pipeline.execute")
    tracer.wrap(engine, "step_commit", "pipeline.commit")
    tracer.wrap(
        engine.pipelined_executor, "execute", "executor.execute",
        on_return=hooks.on_timing,
    )
    seen: set = set()
    for layer in engine.layers:
        tracer.wrap(layer, "begin_step", "pipeline.begin_step")
        tracer.wrap(layer, "route", "router.route", on_return=hooks.on_route)
        scheduler = layer.scheduler
        tracer.wrap(scheduler, "on_step", "scheduler.on_step")
        _wrap_planners(tracer, scheduler.policy, scheduler.migration, hooks, seen)


def _evaluator_counters(policies) -> dict[str, float]:
    """Delta-evaluator and memo accounting over distinct planners."""
    deltas = {id(p.delta): p.delta for p in policies if p.delta is not None}
    memos = {id(p.memo): p.memo for p in policies}
    stats = [d.stats() for d in deltas.values()]
    hits = sum(m.hits for m in memos.values())
    lookups = hits + sum(m.misses for m in memos.values())
    return {
        "delta.rebases": sum(s["rebases"] for s in stats),
        "delta.evaluations": sum(s["evaluations"] for s in stats),
        "delta.fallbacks": sum(s["fallbacks"] for s in stats),
        "memo.hit_rate": hits / lookups if lookups else 0.0,
    }


def _engine_counters(engine) -> dict[str, float]:
    """Scheduler-history and adjustment-stream accounting of an engine."""
    histories = [layer.scheduler.history for layer in engine.layers]
    observed = sum(len(h) for h in histories)
    triggered = sum(o.triggered for h in histories for o in h)
    counters = {
        "scheduler.trigger_rate": triggered / observed if observed else 0.0,
        "pipeline.actions_emitted": float(
            sum(len(o.actions) for h in histories for o in h)
        ),
        "pipeline.actions_committed": float(engine.committed_actions),
        "pipeline.actions_dropped": float(
            sum(layer.dropped_actions for layer in engine.layers)
        ),
    }
    counters.update(
        _evaluator_counters([layer.scheduler.policy for layer in engine.layers])
    )
    return counters


class Workload:
    """Shared shape of the workloads.

    A run is :attr:`sub_runs` independent set-up + measure cycles, each
    from its own sub-seed of the run's seed; each set-up is measured
    :attr:`repeats` times in a row, which a workload allows only when
    :meth:`measure` leaves the state as it found it.  Workload
    randomness (which experts run hot, when bursts arrive) moves a
    single sub-run's figures a lot, so the harness reports the median
    over sub-runs.  Repeats let the harness keep a sub-run's fastest
    measurement, which filters the seconds-long slowdowns a shared host
    goes through.
    """

    name = ""
    sub_runs = 1
    repeats = 1
    #: How the workload's host seconds follow the host's slow spells:
    #: reference kernel (:mod:`perfbench.pace`) -> the power of its
    #: slowdown they stretch by.  The harness divides that back out.
    #: Measured, not derived: the powers that left the least spread in
    #: the rates of repeated runs across slow and fast spells.
    host_sensitivity: dict[str, float] = {}

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def sub_seed(self, index: int) -> int:
        return SUB_SEED_RUN_STRIDE * self.seed + SUB_SEED_STRIDE * index


# ----------------------------------------------------------------------
# plan-4096g
# ----------------------------------------------------------------------
class PlanWorkload(Workload):
    """Policy Maker + Migrate replay of one MoE layer at datacenter scale.

    Closed loop: each round starts when the previous returns.  A sub-run
    replays its trace from the balanced placement with every action
    applied, so the placement evolves as a live scheduler's would.
    """

    name = "plan-4096g"
    # Set-up (trace generation) costs more than a measure, and a measure
    # plans afresh from the balanced placement, so repeat in place.
    repeats = 3
    host_sensitivity = {"interpreter": 0.25, "arrays": 0.25}

    def __init__(
        self,
        seed: int,
        seconds: float,
        num_gpus: int = 4096,
        num_experts: int = 512,
        tokens_per_gpu: int = 32_768,
        skew: float = 1.3,
        trace_steps: int = 4,
        sub_runs: int | None = None,
    ) -> None:
        super().__init__(seed)
        self.num_gpus = num_gpus
        self.num_experts = num_experts
        self.tokens_per_gpu = tokens_per_gpu
        self.skew = skew
        self.trace_steps = trace_steps
        self.sub_runs = (
            sub_runs
            if sub_runs is not None
            else max(3, round(seconds * PLAN_SUB_RUNS_PER_SECOND))
        )

    def sizes(self) -> dict[str, object]:
        return {
            "num_gpus": self.num_gpus,
            "num_experts": self.num_experts,
            "tokens_per_gpu": self.tokens_per_gpu,
            "skew": self.skew,
            "sub_runs": self.sub_runs,
            "repeats": self.repeats,
            "trace_steps_per_sub_run": self.trace_steps,
            "placement_search": "auto",
        }

    def setup(self, tracer, index: int):
        seed = self.sub_seed(index)
        model = MoEModelConfig(
            name=f"bench-{self.num_gpus}g",
            num_layers=4,
            d_model=2048,
            d_ffn=8192,
            num_experts=self.num_experts,
        )
        with tracer.span("cluster.build"):
            topology = ClusterTopology(cluster_for(self.num_gpus))
            profile = Profiler(topology, noise=0.02, seed=seed).profile(model)
            cost_model = MoECostModel(profile, model)
        with tracer.span("workload.generate"):
            trace = DriftingRoutingGenerator(
                self.num_experts,
                self.num_gpus,
                WorkloadConfig(
                    tokens_per_step=self.tokens_per_gpu * self.num_gpus,
                    num_steps=self.trace_steps,
                    skew=self.skew,
                    seed=seed,
                ),
            ).generate()
        return topology, cost_model, trace

    @staticmethod
    def _round(plan, placement: Placement) -> tuple[float, bool]:
        """Run one planner round and apply its actions.

        Returns the round's host seconds and whether it failed: an
        action the placement refused, or a placement left breaking the
        replica floor or slot capacity.  The invariant check is untimed.
        """
        start = time.perf_counter()
        try:
            for action in plan():
                action.apply(placement)
        except PlacementError:
            return time.perf_counter() - start, True
        seconds = time.perf_counter() - start
        try:
            placement.validate()
        except PlacementError:
            return seconds, True
        return seconds, False

    def measure(self, state, tracer) -> Outcome:
        topology, cost_model, trace = state
        policy = PolicyMaker(
            cost_model, use_delta=True, topology=topology,
            placement_search="auto",
        )
        migration = MigrationPlanner(
            cost_model, topology, use_delta=True, memo=policy.memo,
            placement_search="auto", delta=policy.delta,
        )
        hooks = _Hooks()
        if tracer.enabled:
            _wrap_planners(tracer, policy, migration, hooks, set())
        slots = auto_slots_per_gpu(self.num_experts, self.num_gpus)
        placement = Placement.balanced(self.num_experts, self.num_gpus, slots)
        failed = 0
        timed = 0.0
        for step in range(self.trace_steps):
            tracer.step = step
            assignment = trace.step(step)
            for plan in (
                lambda: policy.make_plan(assignment, placement).actions,
                lambda: migration.plan(assignment, placement),
            ):
                seconds, refused = self._round(plan, placement)
                timed += seconds
                failed += refused
        # Price the final placement on a fresh evaluator, outside the
        # timed rounds and the traced planners.
        final = DeltaStepCost(cost_model).rebase(
            trace.step(self.trace_steps - 1), placement
        )
        rounds = 2 * self.trace_steps
        counters = _evaluator_counters([policy])
        counters.update(hooks.counters())
        return Outcome(
            attempted=rounds,
            failed=failed,
            measure_s=timed,
            rate=rounds / timed,
            sim={"sim_time_s": float(final)},
            counters=counters,
        )


# ----------------------------------------------------------------------
# serve-mt16g
# ----------------------------------------------------------------------
class ServeWorkload(Workload):
    """The multi-tenant FlexMoE server, shaped as ``multitenant_run``.

    Open loop in simulated time: the merged arrival schedule is fixed up
    front and every latency is counted from the request's due arrival.
    One bursty interactive tenant and two Poisson batch tenants share
    the expert pool under priority admission with preemption.
    """

    name = "serve-mt16g"
    host_sensitivity = {"interpreter": 0.75, "arrays": 0.5}
    # The shape of multitenant_run's defaults.
    interactive_tokens = 256
    batch_tokens = 768
    load = 0.9
    interactive_share = 0.4
    skew = 2.0
    topic_drift = 0.4
    num_topics = 4

    def __init__(
        self,
        seed: int,
        seconds: float,
        num_gpus: int = 16,
        num_experts: int = 64,
        num_moe_layers: int = 2,
        max_batch_tokens: int = 4096,
        num_requests: int = 1000,
        sub_runs: int | None = None,
    ) -> None:
        super().__init__(seed)
        self.num_gpus = num_gpus
        self.num_experts = num_experts
        self.num_moe_layers = num_moe_layers
        self.max_batch_tokens = max_batch_tokens
        self.num_requests = num_requests
        self.sub_runs = (
            sub_runs
            if sub_runs is not None
            else max(3, round(seconds * SERVE_SUB_RUNS_PER_SECOND))
        )

    def sizes(self) -> dict[str, object]:
        return {
            "num_gpus": self.num_gpus,
            "num_experts": self.num_experts,
            "num_moe_layers": self.num_moe_layers,
            "max_batch_tokens": self.max_batch_tokens,
            "sub_runs": self.sub_runs,
            "requests_per_sub_run": self.num_requests,
            "load": self.load,
            "tenants": ["chat:interactive:bursty", "batch-a:poisson", "batch-b:poisson"],
        }

    def _tenants(self, base: float, seed: int) -> tuple[TenantSpec, ...]:
        token_rate = self.load * self.max_batch_tokens / base
        n_interactive = max(self.num_requests // 2, 1)
        n_batch = max(self.num_requests // 4, 1)
        horizon = n_interactive * self.interactive_tokens / (
            self.interactive_share * token_rate
        )
        batch_rate = (1.0 - self.interactive_share) * token_rate / 2.0 / self.batch_tokens
        interactive = TenantClass(
            name="interactive",
            slo=SLOConfig(
                latency_target=4.0 * base,
                trigger_p99=2.0 * base,
                queue_limit_tokens=2.0 * self.max_batch_tokens,
            ),
            priority=10,
            preemptible=False,
        )
        batch = TenantClass(
            name="batch",
            slo=SLOConfig(latency_target=20.0 * base),
            priority=0,
            preemptible=True,
        )

        def stream(arrival, rate, count, tokens, seed):
            return RequestStreamConfig(
                arrival=arrival,
                rate_rps=rate,
                num_requests=count,
                mean_tokens=tokens,
                max_tokens=self.max_batch_tokens,
                num_topics=self.num_topics,
                topic_drift=self.topic_drift,
                seed=seed,
            )

        return (
            TenantSpec(
                name="chat",
                stream=stream(
                    "bursty", n_interactive / horizon, n_interactive,
                    self.interactive_tokens, seed,
                ),
                tenant_class=interactive,
            ),
            *(
                TenantSpec(
                    name=name,
                    stream=stream(
                        "poisson", batch_rate, n_batch, self.batch_tokens,
                        seed + offset,
                    ),
                    tenant_class=batch,
                    quota_tokens=self.max_batch_tokens // 2,
                    max_queue_tokens=4 * self.max_batch_tokens,
                )
                for offset, name in ((1, "batch-a"), (2, "batch-b"))
            ),
        )

    def setup(self, tracer, index: int):
        seed = self.sub_seed(index)
        model = MoEModelConfig(
            name=f"serving-{self.num_moe_layers}L-{self.num_experts}e",
            num_layers=2 * self.num_moe_layers,
            d_model=1024,
            d_ffn=8192,
            num_experts=self.num_experts,
        )
        with tracer.span("cluster.build"):
            base = probe_batch_seconds(
                self.num_moe_layers, self.num_gpus, self.num_experts,
                self.max_batch_tokens, seed=seed,
            )
        tenants = self._tenants(base, seed)
        with tracer.span("workload.generate"):
            requests = merge_tenant_requests(tenants)
            routing = TopicRoutingModel(
                self.num_moe_layers, self.num_experts, self.num_topics,
                skew=self.skew, seed=seed,
            )
        with tracer.span("cluster.build"):
            server = build_multitenant_serving(
                cluster_for(self.num_gpus),
                model,
                tenants,
                BatchingConfig(
                    max_batch_tokens=self.max_batch_tokens,
                    max_queue_tokens=16 * self.max_batch_tokens,
                ),
                requests=requests,
                num_moe_layers=self.num_moe_layers,
                routing=routing,
                skew=self.skew,
                seed=seed,
                dynamic=True,
                admission_policy="priority",
                preemption=True,
            )
        return server, requests

    def _instrument(self, tracer, run, engine, hooks: _Hooks, executed: list) -> None:
        batch_ids: dict[int, int] = {}

        def enter_dispatch(batch, now, index):
            tracer.step = index
            batch_ids[id(batch)] = index

        def enter_complete(batch, start, execute):
            tracer.step = batch_ids.pop(id(batch), -1)

        def enter_unstepped(*args):
            tracer.step = -1

        tracer.wrap(run, "dispatch", "serving.dispatch", on_call=enter_dispatch,
                    on_return=executed.append)
        tracer.wrap(run, "complete", "serving.complete", on_call=enter_complete)
        tracer.wrap(run, "report", "serving.report", on_call=enter_unstepped)
        tracer.wrap(run.queue, "offer", "admission.offer", on_call=enter_unstepped)
        tracer.wrap(run.queue, "next_batch", "admission.next_batch")
        for method in ("observe_batch", "p99", "attainment"):
            tracer.wrap(run.window, method, "slo.observe")
        _instrument_engine(tracer, engine, hooks)
        # The handle's source captured the unwrapped callbacks; rebuild it
        # from the same public constructor around the wrapped ones.
        run.source = MultiTenantServingSource(
            run.requests, run.queue, run.dispatch, run.complete, preemption=True,
        )

    def measure(self, state, tracer) -> Outcome:
        server, requests = state
        hooks = _Hooks()
        executed: list[float] = []
        with ExitStack() as traced:
            if tracer.enabled:
                tracer.wrap(server, "event_source", "serving.event_source")
                traced.enter_context(tracer.patch_class(SimKernel, "run", "kernel.run"))
            start = time.perf_counter()
            with tracer.span(MEASURE_SPAN):
                run = server.event_source()
                if tracer.enabled:
                    self._instrument(tracer, run, server.engine, hooks, executed)
                kernel = Scenario(name=self.name, sources=(run.source,)).run()
                report = run.report()
            measure_s = time.perf_counter() - start

        # Accounting: every offered request is served, rejected or shed
        # exactly once -- preempted requests included.
        summary = report.multitenant_summary()
        per_tenant = summary["per_tenant"]
        offered = Counter(r.tenant for r in requests)
        failed = 0
        for tenant, spec in enumerate(server.tenants):
            row = per_tenant[spec.name]
            shed = row["requests_shed"]
            rejected = row["requests_rejected"] - shed  # rejections include shed
            failed += abs(row["requests_served"] + rejected + shed - offered[tenant])
        seen = Counter(r.request.index for r in report.records)
        seen.update(r.index for r in report.rejected)
        failed += sum(1 for r in requests if seen[r.index] != 1)

        interactive = [
            r.latency for r in report.records
            if report.tenancy.class_names[r.request.tenant] == "interactive"
        ]
        counters = _engine_counters(server.engine)
        counters.update(hooks.counters())
        total_execute = sum(executed)
        counters.update(
            {
                "kernel.events": float(kernel.processed_events),
                "admission.rejected": float(
                    len(report.rejected) - summary["shed_requests"]
                ),
                "admission.shed": float(summary["shed_requests"]),
                "serving.preemptions": float(summary["preemptions"]),
                "serving.wasted_frac": (
                    summary["wasted_seconds"] / total_execute
                    if total_execute else 0.0
                ),
                "slo.attainment": float(
                    summary["per_class"]["interactive"]["slo_attainment"]
                ),
                "slo.p99_s": float(np.percentile(interactive, 99.0)),
            }
        )
        return Outcome(
            attempted=len(requests),
            failed=int(min(failed, len(requests))),
            measure_s=measure_s,
            rate=len(requests) / measure_s,
            sim={"sim_time_s": float(np.mean(interactive))},
            counters=counters,
        )


WORKLOADS = {
    cls.name: cls for cls in (PlanWorkload, ServeWorkload)
}
