"""Elastic runtime end to end: eviction, re-homing, recovery, faults harness."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro import telemetry
from repro.bench.harness import faults_run, placements_rehomed
from repro.cluster.events import ClusterEvent, ElasticitySchedule
from repro.config import (
    ClusterConfig,
    FaultConfig,
    MoEModelConfig,
    SchedulerConfig,
    WorkloadConfig,
)
from repro.core.migration import evict_failed_gpus, plan_replacements
from repro.core.placement import Placement
from repro.baselines.base import build_context
from repro.exceptions import ConfigurationError, ElasticityError
from repro.runtime.pipeline import MultiLayerFlexMoEEngine, build_engine
from repro.training.loop import simulate_pipeline
from repro.workload.synthetic import make_multilayer_trace


SMALL_MODEL = MoEModelConfig(
    name="elastic-test", num_layers=4, d_model=128, d_ffn=512, num_experts=8
)
SMALL_CLUSTER = ClusterConfig(num_nodes=1, gpus_per_node=4)


def small_engine(schedule, scheduler_config=None, num_moe_layers=2):
    return build_engine(
        SMALL_CLUSTER,
        SMALL_MODEL,
        num_moe_layers=num_moe_layers,
        scheduler_config=scheduler_config,
        elasticity=schedule,
        seed=0,
    )


def small_trace(num_steps, num_moe_layers=2, seed=0, tokens_per_step=16_384):
    return make_multilayer_trace(
        num_moe_layers,
        SMALL_MODEL.num_experts,
        SMALL_CLUSTER.num_gpus,
        WorkloadConfig(
            tokens_per_step=tokens_per_step, num_steps=num_steps, seed=seed
        ),
    )


# ----------------------------------------------------------------------
# Elasticity telemetry: the engine's own delivery taps each due step once
# ----------------------------------------------------------------------
class TestElasticityTelemetry:
    def test_each_step_with_events_is_tapped_and_applied_once(self):
        schedule = ElasticitySchedule.from_fault_config(
            FaultConfig(
                num_failures=1,
                failure_step=2,
                recovery_steps=3,
                num_stragglers=1,
                straggler_factor=0.5,
                straggler_step=1,
                seed=0,
            ),
            num_gpus=SMALL_CLUSTER.num_gpus,
        )
        kinds = sorted(event.kind for event in schedule.events)
        assert kinds == ["fail", "recover", "slowdown"]
        event_steps = sorted({event.step for event in schedule.events})
        assert len(event_steps) == 3
        engine = small_engine(
            schedule,
            SchedulerConfig(
                speed_aware_balance=True, min_replicas=2, slots_per_gpu=6
            ),
        )
        with telemetry.session(reuse=False) as tel:
            run = simulate_pipeline(engine, small_trace(8))
        counters = tel.registry.snapshot()["counters"]
        assert counters["cluster.elasticity_steps"] == len(event_steps)
        decisions = tel.timeline.of_kind("elasticity")
        assert [d.time for d in decisions] == [float(s) for s in event_steps]
        assert [d.subject for d in decisions] == [
            f"step[{s}]" for s in event_steps
        ]
        assert Counter(run.event_log) == Counter(
            (event.step, event) for event in schedule.events
        )
        assert len(run.event_log) == len(schedule)


# ----------------------------------------------------------------------
# Eviction / re-homing primitives
# ----------------------------------------------------------------------
class TestEvictionPrimitives:
    def test_evict_drops_every_replica_on_dead_gpus(self):
        placement = Placement.balanced(8, 4, 4)
        lost = evict_failed_gpus(placement, [1])
        assert sum(lost.values()) == 4  # 4 slots' worth of vExperts
        assert placement.counts[:, 1].sum() == 0
        placement.validate()

    def test_evict_orphan_raises_clear_error(self):
        placement = Placement.expert_parallel(4, 4)  # one replica each
        with pytest.raises(ElasticityError, match="expert 2 lost all 1"):
            evict_failed_gpus(placement, [2])

    def test_orphan_check_runs_before_any_mutation(self):
        placement = Placement.expert_parallel(4, 4)
        snapshot = placement.counts
        with pytest.raises(ElasticityError):
            evict_failed_gpus(placement, [0, 1])
        assert (placement.counts == snapshot).all()

    def test_plan_replacements_restores_lost_replicas(self):
        # 3 slots per GPU, 2 used: the survivors have headroom.
        counts = np.array(
            [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]]
        )
        placement = Placement(counts, slots_per_gpu=3)
        lost = evict_failed_gpus(placement, [3])
        actions = plan_replacements(placement, lost, live_gpus=(0, 1, 2))
        assert len(actions) == sum(lost.values()) == 2
        for action in actions:
            action.apply(placement)
        assert (placement.replica_counts() == 2).all()
        assert placement.counts[:, 3].sum() == 0

    def test_plan_replacements_skips_when_survivors_are_full(self):
        # Balanced placements bind every slot, so survivors have no room.
        placement = Placement.balanced(4, 4, 2)
        lost = evict_failed_gpus(placement, [0])
        assert plan_replacements(placement, lost, live_gpus=(1, 2, 3)) == []

    def test_plan_replacements_requires_live_devices(self):
        placement = Placement.balanced(4, 4, 2)
        with pytest.raises(ElasticityError):
            plan_replacements(placement, {0: 1}, live_gpus=())


# ----------------------------------------------------------------------
# Engine-level failure handling
# ----------------------------------------------------------------------
class TestEngineFailure:
    def test_failure_mid_run_evicts_and_continues(self):
        schedule = ElasticitySchedule([ClusterEvent(step=3, kind="fail", gpu=1)])
        engine = small_engine(schedule)
        trace = small_trace(8)
        results = [engine.step(trace.step(t), t) for t in range(8)]
        # Before the event: full pool; after: one device gone.
        assert results[2].live_gpus == 4
        assert results[3].live_gpus == 3
        # No placement keeps a vExpert on the dead device.
        for placement in engine.placements():
            assert placement.counts[:, 1].sum() == 0
        # The dead device neither sources nor computes tokens.
        assert results[-1].layer_gpu_loads[:, 1].sum() == 0

    def test_tokens_conserved_through_resharding(self):
        schedule = ElasticitySchedule([ClusterEvent(step=2, kind="fail", gpu=0)])
        engine = small_engine(schedule)
        trace = small_trace(5)
        for t in range(5):
            result = engine.step(trace.step(t), t)
            assert result.processed_tokens == int(trace.step(t).sum())

    def test_target_and_active_both_evicted(self):
        schedule = ElasticitySchedule([ClusterEvent(step=2, kind="fail", gpu=2)])
        engine = small_engine(schedule)
        trace = small_trace(6)
        for t in range(6):
            engine.step(trace.step(t), t)
        for layer in engine.layers:
            assert layer.active_placement.counts[:, 2].sum() == 0
            assert layer.target_placement.counts[:, 2].sum() == 0
            layer.active_placement.validate()
            layer.target_placement.validate()

    def test_orphaned_expert_raises_from_engine_step(self):
        # One slot per GPU and as many experts as GPUs: every expert has a
        # single replica, so the failed device orphans one.
        model = dataclasses.replace(SMALL_MODEL, num_experts=4)
        engine = build_engine(
            SMALL_CLUSTER,
            model,
            num_moe_layers=1,
            scheduler_config=SchedulerConfig(slots_per_gpu=1),
            elasticity=ElasticitySchedule(
                [ClusterEvent(step=1, kind="fail", gpu=0)]
            ),
        )
        trace = make_multilayer_trace(
            1, 4, 4, WorkloadConfig(tokens_per_step=4096, num_steps=3)
        )
        engine.step(trace.step(0), 0)
        with pytest.raises(ElasticityError, match="lost all"):
            engine.step(trace.step(1), 1)

    def test_event_log_records_applied_events(self):
        schedule = ElasticitySchedule(
            [
                ClusterEvent(step=1, kind="slowdown", gpu=3, factor=0.5),
                ClusterEvent(step=2, kind="fail", gpu=1),
            ]
        )
        engine = small_engine(schedule)
        trace = small_trace(4)
        result = simulate_pipeline(engine, trace)
        assert [(s, ev.kind) for s, ev in result.event_log] == [
            (1, "slowdown"),
            (2, "fail"),
        ]
        assert result.live_gpus_per_step.tolist() == [4, 4, 3, 3]

    def test_elasticity_needs_the_executors_cluster_state(self):
        context = build_context(SMALL_CLUSTER, SMALL_MODEL, seed=0)
        schedule = ElasticitySchedule([ClusterEvent(step=1, kind="fail", gpu=1)])
        with pytest.raises(ConfigurationError, match="ClusterState"):
            MultiLayerFlexMoEEngine(
                executor=context.executor,
                profile=context.profile,
                collectives=context.collectives,
                elasticity=schedule,
            )


# ----------------------------------------------------------------------
# Recovery
# ----------------------------------------------------------------------
class TestEngineRecovery:
    def test_recovered_device_is_refilled(self):
        schedule = ElasticitySchedule(
            [
                ClusterEvent(step=2, kind="fail", gpu=1),
                ClusterEvent(step=5, kind="recover", gpu=1),
            ]
        )
        engine = small_engine(schedule)
        # Steps must be long enough for the best-effort stream to pay the
        # refill transfers plus communicator creation within a few steps.
        trace = small_trace(12, tokens_per_step=2_097_152)
        results = [engine.step(trace.step(t), t) for t in range(12)]
        assert results[4].live_gpus == 3
        assert results[5].live_gpus == 4
        # The refill Expands ride the best-effort stream; well after the
        # recovery they have committed and the device hosts experts and
        # computes tokens again.
        for layer in engine.layers:
            assert layer.target_placement.counts[:, 1].sum() > 0
            assert layer.active_placement.counts[:, 1].sum() > 0
        assert results[-1].layer_gpu_loads[:, 1].sum() > 0

    def test_straggler_slowdown_changes_step_time(self):
        slow = ElasticitySchedule(
            [ClusterEvent(step=0, kind="slowdown", gpu=0, factor=0.25)]
        )
        engine_slow = small_engine(
            slow, scheduler_config=SchedulerConfig(balance_threshold=1e9,
                                                   migrate=False)
        )
        engine_fast = small_engine(
            ElasticitySchedule([]),
            scheduler_config=SchedulerConfig(balance_threshold=1e9,
                                             migrate=False),
        )
        trace = small_trace(4)
        # Step 0 is dominated by one-time communicator creation in both
        # engines; compare the steady steps after it.
        slow_times = [
            engine_slow.step(trace.step(t), t).step_time for t in range(4)
        ]
        fast_times = [
            engine_fast.step(trace.step(t), t).step_time for t in range(4)
        ]
        assert sum(slow_times[1:]) > 1.5 * sum(fast_times[1:])


# ----------------------------------------------------------------------
# Faults harness
# ----------------------------------------------------------------------
class TestPlacementsRehomed:
    """The one survival check behind the faults report's ``rehomed``
    flags (``min_replicas=2``) and the serving scenarios'
    ``experts_survive`` (``min_replicas=1``)."""

    class _Engine:
        def __init__(self, counts, live):
            self._placement = Placement(np.array(counts), slots_per_gpu=2)
            self.cluster_state = type(
                "State", (), {"live_mask": lambda _: np.array(live)}
            )()

        def placements(self):
            return (self._placement,)

    def test_expert_only_on_dead_device_fails_survival(self):
        # Expert 1 lives only on GPU 2, which is dead.
        engine = self._Engine(
            [[1, 1, 0], [0, 0, 1]], live=[True, True, False]
        )
        assert not placements_rehomed(engine, min_replicas=1)

    def test_one_live_replica_survives_but_misses_a_floor_of_two(self):
        engine = self._Engine(
            [[1, 1, 0], [0, 1, 1]], live=[True, True, False]
        )
        assert placements_rehomed(engine, min_replicas=1)
        assert not placements_rehomed(engine, min_replicas=2)


class TestFaultsRun:
    def test_seeded_scenario_is_deterministic(self):
        kwargs = dict(num_moe_layers=1, num_gpus=4, num_experts=8,
                      num_steps=24, tokens_per_gpu=4096, seed=7)
        assert faults_run(**kwargs).summary() == faults_run(**kwargs).summary()

    def test_smoke_scenario_recovers(self):
        result = faults_run(
            num_moe_layers=2, num_gpus=8, num_experts=16,
            num_steps=40, seed=0,
        )
        summary = result.summary()
        assert summary["ok"]
        assert result.flexmoe_rehomed and result.baseline_rehomed
        assert summary["flexmoe"]["recovered"] == 1.0
        # Re-converged: the final mean sits below the disruption peak.
        assert summary["flexmoe"]["final"] < summary["flexmoe"]["disruption_peak"]
        # Dynamic placement beats the static baseline on the same events.
        assert summary["final_speedup"] > 1.0

    def test_permanent_failure_rehomes_for_good(self):
        # No recovery: the dead device stays dead, so the rehomed flag
        # genuinely asserts that no placement still maps to it at the end.
        result = faults_run(
            num_moe_layers=1, num_gpus=4, num_experts=8, num_steps=16,
            tokens_per_gpu=4096,
            faults=FaultConfig(num_failures=1, failure_step=4,
                               recovery_steps=None, num_stragglers=0),
            seed=2,
        )
        assert result.flexmoe_rehomed and result.baseline_rehomed
        assert (result.flexmoe.live_gpus_per_step[-1]) == 3

    def test_stragglers_cannot_exceed_surviving_pool(self):
        with pytest.raises(ElasticityError, match="stragglers"):
            ElasticitySchedule.from_fault_config(
                FaultConfig(num_failures=2, num_stragglers=7), 8
            )

    def test_rehoming_prefers_devices_not_holding_the_expert(self):
        # Expert 0 on {0, 2}, expert 1 on {1, 2}; gpu 2 dies. Rebuilding
        # on the co-resident device would pack both copies together and
        # defeat the distinct-device fault-tolerance floor.
        counts = np.array([[1, 0, 1], [0, 1, 1]])
        placement = Placement(counts, slots_per_gpu=2)
        lost = evict_failed_gpus(placement, [2])
        actions = plan_replacements(placement, lost, live_gpus=(0, 1))
        for action in actions:
            action.apply(placement)
        distinct = (placement.counts > 0).sum(axis=1)
        assert (distinct == 2).all()

    def test_cascading_permanent_failures_survive(self):
        # Three permanent failures in sequence: after each one the rescue
        # path must restore every below-floor expert onto a fresh device
        # (shrinking a donor when survivors are slot-full), or the next
        # failure would orphan it and abort the run.
        result = faults_run(
            num_moe_layers=1, num_gpus=8, num_experts=16, num_steps=30,
            tokens_per_gpu=8192,
            faults=FaultConfig(num_failures=3, failure_step=6,
                               failure_spacing=8, recovery_steps=None,
                               num_stragglers=0),
            seed=0,
        )
        assert result.flexmoe.live_gpus_per_step[-1] == 5
        assert result.flexmoe_rehomed and result.baseline_rehomed

    def test_rescue_shrinks_a_donor_when_survivors_are_full(self):
        # gpu 3 dies; expert 0 drops to one device while every surviving
        # slot is occupied. Rebuilding its second copy requires freeing a
        # slot first: a Shrink of a 3-replica donor on a device expert 0
        # does not occupy, followed by the rescue Expand.
        counts = np.array(
            [
                [1, 0, 0, 1],
                [0, 1, 1, 1],
                [1, 1, 1, 0],
                [1, 1, 1, 0],
            ]
        )
        placement = Placement(counts, slots_per_gpu=3)
        lost = evict_failed_gpus(placement, [3])
        actions = plan_replacements(
            placement, lost, live_gpus=(0, 1, 2), min_replicas=2
        )
        kinds = [type(a).__name__ for a in actions]
        assert "Shrink" in kinds and "Expand" in kinds
        for action in actions:
            action.apply(placement)
        distinct = (placement.counts > 0).sum(axis=1)
        assert (distinct >= 2).all()

    def test_failure_free_scenario(self):
        result = faults_run(
            num_moe_layers=1, num_gpus=4, num_experts=8, num_steps=12,
            tokens_per_gpu=4096,
            faults=FaultConfig(num_failures=0, num_stragglers=1,
                               straggler_step=2),
            seed=1,
        )
        summary = result.summary()
        assert summary["first_failure_step"] is None
        assert summary["flexmoe"]["final"] > 0

    def test_elastic_floor_keeps_two_distinct_devices(self):
        result = faults_run(
            num_moe_layers=1, num_gpus=4, num_experts=8, num_steps=16,
            tokens_per_gpu=4096,
            faults=FaultConfig(num_failures=0, num_stragglers=1,
                               straggler_step=2),
            seed=0,
        )
        # min_replicas=2 in elastic runs: despite plenty of scheduling,
        # no expert ever dropped to a single device.
        assert len(result.flexmoe.results) == 16
        # (final placements checked; intermediate invariants are implied
        # by the floor being enforced at proposal time)
        # Reconstruct the engine placements via the run's signatures is
        # not possible, so assert through a fresh run's engine instead.
        from repro.bench.harness import cluster_for
        from repro.cluster.events import ElasticitySchedule as ES

        engine = build_engine(
            cluster_for(4), SMALL_MODEL, num_moe_layers=1,
            scheduler_config=SchedulerConfig(min_replicas=2,
                                             speed_aware_balance=True,
                                             slots_per_gpu=6),
            elasticity=ES([ClusterEvent(step=1, kind="slowdown", gpu=0,
                                        factor=0.5)]),
        )
        trace = small_trace(10, num_moe_layers=1)
        for t in range(10):
            engine.step(trace.step(t), t)
        for placement in engine.placements():
            distinct = (placement.counts > 0).sum(axis=1)
            assert (distinct >= 2).all()
