"""The Trigger protocol: the when-to-schedule predicates shared by
training and serving (the trigger extraction of the serving subsystem)."""

import numpy as np
import pytest

from repro.cluster.topology import ClusterTopology
from repro.config import ClusterConfig, SchedulerConfig
from repro.core.trigger import (
    ImbalanceTrigger,
    LatencyTrigger,
    NeverTrigger,
    StaticIntervalTrigger,
    Trigger,
    TriggerSignals,
    trigger_from_config,
)
from repro.exceptions import SchedulingError


def signals(**overrides):
    base = dict(step=0, balance_metric=None, p99_latency=None, queue_tokens=None)
    base.update(overrides)
    return TriggerSignals(**base)


class TestImbalanceTrigger:
    def test_fires_above_threshold(self):
        trig = ImbalanceTrigger(metric="max", threshold=1.15)
        assert trig.should_trigger(signals(balance_metric=1.2))
        assert not trig.should_trigger(signals(balance_metric=1.1))
        assert not trig.should_trigger(signals(balance_metric=1.15))

    def test_variance_metric_offsets_threshold(self):
        trig = ImbalanceTrigger(metric="variance", threshold=1.15)
        # Variance compares against threshold - 1.
        assert trig.should_trigger(signals(balance_metric=0.2))
        assert not trig.should_trigger(signals(balance_metric=0.1))

    def test_requires_the_metric(self):
        trig = ImbalanceTrigger()
        assert trig.requires_balance_metric
        with pytest.raises(SchedulingError):
            trig.should_trigger(signals())

    def test_ignores_serving_signals(self):
        trig = ImbalanceTrigger(threshold=1.15)
        assert not trig.should_trigger(
            signals(balance_metric=1.0, p99_latency=1e9, queue_tokens=1e9)
        )

    def test_rejects_bad_threshold(self):
        with pytest.raises(SchedulingError):
            ImbalanceTrigger(threshold=0.5)


class TestStaticIntervalTrigger:
    def test_fires_on_the_interval(self):
        trig = StaticIntervalTrigger(interval=10)
        assert trig.should_trigger(signals(step=0))
        assert not trig.should_trigger(signals(step=7))
        assert trig.should_trigger(signals(step=20))

    def test_needs_no_metric(self):
        assert not StaticIntervalTrigger(interval=3).requires_balance_metric

    def test_rejects_bad_interval(self):
        with pytest.raises(SchedulingError):
            StaticIntervalTrigger(interval=0)


class TestLatencyTrigger:
    def test_fires_on_p99_violation(self):
        trig = LatencyTrigger(p99_target=0.1)
        assert trig.should_trigger(signals(p99_latency=0.2))
        assert not trig.should_trigger(signals(p99_latency=0.05))

    def test_fires_on_queue_depth(self):
        trig = LatencyTrigger(p99_target=0.1, queue_limit_tokens=1000)
        assert trig.should_trigger(signals(queue_tokens=2000))
        assert not trig.should_trigger(signals(queue_tokens=500))

    def test_absent_signals_never_fire(self):
        trig = LatencyTrigger(p99_target=0.1, queue_limit_tokens=1000)
        assert not trig.should_trigger(signals())

    def test_queue_signal_disabled_by_default(self):
        trig = LatencyTrigger(p99_target=0.1)
        assert not trig.should_trigger(signals(queue_tokens=1e12))

    def test_ignores_balance_metric(self):
        trig = LatencyTrigger(p99_target=0.1)
        assert not trig.requires_balance_metric
        assert not trig.should_trigger(signals(balance_metric=100.0))

    def test_validation(self):
        with pytest.raises(SchedulingError):
            LatencyTrigger(p99_target=0.0)
        with pytest.raises(SchedulingError):
            LatencyTrigger(p99_target=0.1, queue_limit_tokens=-1)


class TestNeverTrigger:
    def test_never_fires(self):
        trig = NeverTrigger()
        assert not trig.should_trigger(
            signals(step=0, balance_metric=1e9, p99_latency=1e9, queue_tokens=1e9)
        )


class TestTriggerFromConfig:
    def test_dynamic_maps_to_imbalance(self):
        config = SchedulerConfig(balance_threshold=1.3, metric="variance")
        trig = trigger_from_config(config)
        assert isinstance(trig, ImbalanceTrigger)
        assert trig.threshold == 1.3
        assert trig.metric == "variance"

    def test_static_maps_to_interval(self):
        config = SchedulerConfig(mode="static", static_interval=25)
        trig = trigger_from_config(config)
        assert isinstance(trig, StaticIntervalTrigger)
        assert trig.interval == 25

    def test_all_triggers_satisfy_protocol(self):
        for trig in (
            ImbalanceTrigger(),
            StaticIntervalTrigger(),
            LatencyTrigger(p99_target=1.0),
            NeverTrigger(),
        ):
            assert isinstance(trig, Trigger)


class TestSchedulerIntegration:
    """The Scheduler's trigger path is equivalent to the pre-extraction
    inlined predicate, and serving signals reach a latency trigger."""

    def _scheduler(self, config, trigger=None):
        from repro.cluster.profiler import Profiler
        from repro.core.cost_model import MoECostModel
        from repro.core.placement import Placement
        from repro.core.policy import PolicyMaker
        from repro.core.scheduler import Scheduler
        from repro.config import MoEModelConfig

        cluster = ClusterConfig(num_nodes=1, gpus_per_node=4)
        topology = ClusterTopology(cluster)
        model = MoEModelConfig(
            name="trigger-test", num_layers=2, d_model=128, d_ffn=512,
            num_experts=8,
        )
        profile = Profiler(topology, noise=0.0, seed=0).profile(model)
        placement = Placement.balanced(8, 4, 4)
        policy = PolicyMaker(MoECostModel(profile, model))
        return Scheduler(placement, policy, config, topology, trigger=trigger)

    def test_dynamic_matches_metric_threshold(self):
        scheduler = self._scheduler(SchedulerConfig(balance_threshold=1.15))
        balanced = np.full((8, 4), 100)
        skewed = balanced.copy()
        skewed[0] *= 50
        assert not scheduler.on_step(balanced, step=0).triggered
        assert scheduler.on_step(skewed, step=0).triggered

    def test_static_mode_ignores_balance(self):
        scheduler = self._scheduler(
            SchedulerConfig(mode="static", static_interval=10)
        )
        skewed = np.full((8, 4), 100)
        skewed[0] *= 50
        assert scheduler.on_step(skewed, step=0).triggered
        assert not scheduler.on_step(skewed, step=3).triggered

    def test_latency_trigger_consumes_serving_signals(self):
        scheduler = self._scheduler(
            SchedulerConfig(),
            trigger=LatencyTrigger(p99_target=0.1, queue_limit_tokens=1000),
        )
        skewed = np.full((8, 4), 100)
        skewed[0] *= 50  # would fire the imbalance trigger
        assert not scheduler.on_step(skewed, step=0).triggered
        scheduler.observe_serving_signals(p99_latency=0.5)
        assert scheduler.on_step(skewed, step=0).triggered
        scheduler.observe_serving_signals(p99_latency=0.01, queue_tokens=5000)
        assert scheduler.on_step(skewed, step=0).triggered
        scheduler.observe_serving_signals(p99_latency=0.01, queue_tokens=10)
        assert not scheduler.on_step(skewed, step=0).triggered

    def test_never_trigger_freezes_scheduling(self):
        scheduler = self._scheduler(SchedulerConfig(), trigger=NeverTrigger())
        skewed = np.full((8, 4), 100)
        skewed[0] *= 50
        outcome = scheduler.on_step(skewed, step=0)
        assert not outcome.triggered
        assert outcome.actions == ()

    def test_latency_trigger_runs_full_round_when_fired(self):
        scheduler = self._scheduler(
            SchedulerConfig(),
            trigger=LatencyTrigger(p99_target=0.1),
        )
        scheduler.observe_serving_signals(p99_latency=1.0)
        skewed = np.full((8, 4), 10)
        skewed[0] = 2000
        outcome = scheduler.on_step(skewed, step=0)
        assert outcome.triggered
        assert outcome.rounds >= 1
        assert outcome.metric_after <= outcome.metric_before
