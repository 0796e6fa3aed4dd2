"""Elastic cluster substrate: state, event schedules, heterogeneity."""

import numpy as np
import pytest

from repro.cluster.events import (
    ClusterEvent,
    ClusterState,
    ElasticitySchedule,
    redistribute_assignments,
)
from repro.cluster.profiler import Profiler
from repro.cluster.topology import ClusterTopology
from repro.config import ClusterConfig, FaultConfig, MoEModelConfig, WorkloadConfig
from repro.core.cost_model import MemoizedStepCost, MoECostModel
from repro.core.placement import Placement
from repro.exceptions import ConfigurationError, ElasticityError
from repro.workload.synthetic import DriftingRoutingGenerator


SMALL_MODEL = MoEModelConfig(
    name="events-test", num_layers=2, d_model=64, d_ffn=256, num_experts=4
)


# ----------------------------------------------------------------------
# ClusterEvent
# ----------------------------------------------------------------------
class TestClusterEvent:
    def test_valid_kinds(self):
        for kind in ("fail", "recover", "slowdown", "restore"):
            ClusterEvent(step=0, kind=kind, gpu=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"step": -1, "kind": "fail", "gpu": 0},
            {"step": 0, "kind": "explode", "gpu": 0},
            {"step": 0, "kind": "fail", "gpu": -1},
            {"step": 0, "kind": "slowdown", "gpu": 0, "factor": 0.0},
        ],
    )
    def test_invalid_events(self, kwargs):
        with pytest.raises(ElasticityError):
            ClusterEvent(**kwargs)


# ----------------------------------------------------------------------
# ClusterState
# ----------------------------------------------------------------------
class TestClusterState:
    def test_initial_state_is_pristine(self):
        state = ClusterState(4)
        assert state.num_live == 4
        assert state.version == 0
        assert state.live_gpus() == (0, 1, 2, 3)

    def test_fail_and_recover_cycle(self):
        state = ClusterState(4)
        state.fail(2)
        assert not state.is_alive(2)
        assert state.num_live == 3
        state.recover(2)
        assert state.is_alive(2)

    def test_recovery_clears_prior_slowdown(self):
        # A device that was throttled before dying rejoins as a rebooted
        # or replacement unit at nominal speed.
        state = ClusterState(4)
        state.set_speed(1, 0.5)
        state.fail(1)
        state.recover(1)
        assert state.speed_of(1) == 1.0

    def test_every_mutation_bumps_version(self):
        state = ClusterState(4)
        state.fail(1)
        state.recover(1)
        state.set_speed(0, 0.5)
        assert state.version == 3

    def test_double_fail_rejected(self):
        state = ClusterState(4)
        state.fail(1)
        with pytest.raises(ElasticityError):
            state.fail(1)

    def test_recover_alive_rejected(self):
        state = ClusterState(4)
        with pytest.raises(ElasticityError):
            state.recover(0)

    def test_last_device_cannot_fail(self):
        state = ClusterState(2)
        state.fail(0)
        with pytest.raises(ElasticityError, match="last live device"):
            state.fail(1)

    def test_speed_factor_validation(self):
        state = ClusterState(2)
        state.set_speed(0, 0.25)
        assert state.speed_of(0) == 0.25
        with pytest.raises(ElasticityError):
            state.set_speed(0, -1.0)

    def test_gpu_bounds_checked(self):
        state = ClusterState(2)
        with pytest.raises(ElasticityError):
            state.fail(7)


# ----------------------------------------------------------------------
# ElasticitySchedule
# ----------------------------------------------------------------------
class TestElasticitySchedule:
    def test_events_sorted_and_grouped_by_step(self):
        schedule = ElasticitySchedule(
            [
                ClusterEvent(step=5, kind="fail", gpu=1),
                ClusterEvent(step=2, kind="slowdown", gpu=0, factor=0.5),
                ClusterEvent(step=5, kind="slowdown", gpu=2, factor=0.8),
            ]
        )
        assert [ev.step for ev in schedule.events] == [2, 5, 5]
        assert len(schedule.events_at(5)) == 2
        assert schedule.events_at(3) == ()
        assert schedule.first_failure_step() == 5

    def test_from_fault_config_is_deterministic(self):
        config = FaultConfig(
            num_failures=2, failure_step=4, recovery_steps=6,
            num_stragglers=2, straggler_step=1, seed=11,
        )
        a = ElasticitySchedule.from_fault_config(config, 8)
        b = ElasticitySchedule.from_fault_config(config, 8)
        assert a.events == b.events
        # Two failures + two recoveries + two slowdowns.
        assert len(a) == 6

    def test_different_seed_changes_victims(self):
        schedules = {
            tuple(
                ev.gpu
                for ev in ElasticitySchedule.from_fault_config(
                    FaultConfig(num_failures=2, seed=s), 16
                ).events
            )
            for s in range(6)
        }
        assert len(schedules) > 1

    def test_failures_hit_distinct_gpus(self):
        config = FaultConfig(num_failures=7, failure_step=0, failure_spacing=1)
        schedule = ElasticitySchedule.from_fault_config(config, 8)
        failed = [ev.gpu for ev in schedule.events if ev.kind == "fail"]
        assert len(set(failed)) == 7

    def test_cannot_fail_every_device(self):
        with pytest.raises(ElasticityError):
            ElasticitySchedule.from_fault_config(
                FaultConfig(num_failures=4), 4
            )

    def test_straggler_duration_emits_restore(self):
        config = FaultConfig(
            num_failures=0, num_stragglers=1,
            straggler_step=3, straggler_duration=5,
        )
        schedule = ElasticitySchedule.from_fault_config(config, 4)
        kinds = [ev.kind for ev in schedule.events]
        assert kinds == ["slowdown", "restore"]
        assert schedule.events[1].step == 8


# ----------------------------------------------------------------------
# Assignment re-sharding
# ----------------------------------------------------------------------
class TestRedistributeAssignment:
    def test_noop_when_all_alive(self):
        assignments = np.arange(24).reshape(2, 3, 4)
        out = redistribute_assignments(assignments, np.ones(4, dtype=bool))
        assert out is assignments

    def test_conserves_tokens_and_zeroes_dead_columns(self):
        rng = np.random.default_rng(0)
        assignments = rng.integers(0, 100, size=(3, 6, 8))
        live = np.ones(8, dtype=bool)
        live[[2, 5]] = False
        out = redistribute_assignments(assignments, live)
        assert out.sum() == assignments.sum()
        assert (out[:, :, [2, 5]] == 0).all()
        assert (out.sum(axis=2) == assignments.sum(axis=2)).all()

    def test_even_spread_with_deterministic_remainder(self):
        assignments = np.array([[[0, 0, 0, 7]], [[0, 0, 0, 5]]])
        live = np.array([True, True, True, False])
        out = redistribute_assignments(assignments, live)
        assert out.tolist() == [[[3, 2, 2, 0]], [[2, 2, 1, 0]]]

    def test_all_dead_raises(self):
        with pytest.raises(ElasticityError):
            redistribute_assignments(
                np.ones((1, 2, 2)), np.zeros(2, dtype=bool)
            )


# ----------------------------------------------------------------------
# Static heterogeneity
# ----------------------------------------------------------------------
class TestHeterogeneousCluster:
    def test_scale_length_validated(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(num_nodes=1, gpus_per_node=4, compute_scales=(1.0, 0.5))

    def test_scales_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(
                num_nodes=1, gpus_per_node=2, bandwidth_scales=(1.0, 0.0)
            )

    def test_device_compute_scale_applies(self):
        config = ClusterConfig(
            num_nodes=1, gpus_per_node=4, compute_scales=(1.0, 1.0, 0.5, 1.0)
        )
        topology = ClusterTopology(config)
        fast = topology.device(0).tokens_per_second(SMALL_MODEL)
        slow = topology.device(2).tokens_per_second(SMALL_MODEL)
        assert slow == pytest.approx(0.5 * fast)

    def test_bandwidth_bottlenecked_by_slower_endpoint(self):
        config = ClusterConfig(
            num_nodes=1, gpus_per_node=4, bandwidth_scales=(1.0, 0.5, 1.0, 1.0)
        )
        topology = ClusterTopology(config)
        nominal = ClusterTopology(
            ClusterConfig(num_nodes=1, gpus_per_node=4)
        ).bandwidth(0, 2)
        assert topology.bandwidth(0, 1) == pytest.approx(0.5 * nominal)
        assert topology.bandwidth(1, 0) == pytest.approx(0.5 * nominal)
        assert topology.bandwidth(0, 2) == pytest.approx(nominal)
        # Loop-back copies are device-local and unaffected.
        assert topology.bandwidth(1, 1) == ClusterTopology.LOCAL_COPY_BANDWIDTH

    def test_profiler_measures_heterogeneous_tps(self):
        config = ClusterConfig(
            num_nodes=1, gpus_per_node=4, compute_scales=(1.0, 0.25, 1.0, 1.0)
        )
        profile = Profiler(ClusterTopology(config), noise=0.0).profile(
            SMALL_MODEL
        )
        assert profile.tps[1] == pytest.approx(0.25 * profile.tps[0])


# ----------------------------------------------------------------------
# Elastic cost-model pricing
# ----------------------------------------------------------------------
class TestElasticCostModel:
    def _cost_model(self):
        topology = ClusterTopology(ClusterConfig(num_nodes=1, gpus_per_node=4))
        profile = Profiler(topology, noise=0.0).profile(SMALL_MODEL)
        state = ClusterState(4)
        return MoECostModel(profile, SMALL_MODEL, cluster_state=state), state

    def test_compute_prices_against_current_speed(self):
        cost_model, state = self._cost_model()
        before = cost_model.compute_time(1000, 1)
        state.set_speed(1, 0.5)
        assert cost_model.compute_time(1000, 1) == pytest.approx(2 * before)

    def test_live_mask_tracks_failures(self):
        cost_model, state = self._cost_model()
        assert cost_model.live_mask().all()
        state.fail(3)
        assert cost_model.live_mask().tolist() == [True, True, True, False]

    def test_memo_invalidated_by_state_changes(self):
        cost_model, state = self._cost_model()
        memo = MemoizedStepCost(cost_model)
        placement = Placement.balanced(4, 4, 2)
        assignment = np.full((4, 4), 64)
        before = memo.step_time(assignment, placement)
        assert memo.step_time(assignment, placement) == before
        assert memo.hits == 1
        state.set_speed(0, 0.5)  # straggler: the same query must re-price
        after = memo.step_time(assignment, placement)
        assert memo.hits == 1 and memo.misses == 2
        assert after > before


# ----------------------------------------------------------------------
# Workload spikes
# ----------------------------------------------------------------------
class TestWorkloadSpikes:
    def test_spike_config_validated(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(spike_period=0)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(spike_magnitude=0.0)

    def test_spiked_trace_is_deterministic_and_conserving(self):
        config = WorkloadConfig(
            tokens_per_step=4096, num_steps=20, spike_period=3,
            spike_magnitude=8.0, seed=5,
        )
        a = DriftingRoutingGenerator(8, 4, config).generate()
        b = DriftingRoutingGenerator(8, 4, config).generate()
        assert a == b
        assert (a.tokens_per_step() == 4096).all()

    def test_spikes_change_the_trace(self):
        base = WorkloadConfig(tokens_per_step=4096, num_steps=20, seed=5)
        plain = DriftingRoutingGenerator(8, 4, base).generate()
        spiked = DriftingRoutingGenerator(
            8, 4, base.replace(spike_period=2, spike_magnitude=16.0)
        ).generate()
        assert plain != spiked
