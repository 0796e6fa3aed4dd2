"""The best-effort adjustment stream (``repro.runtime.adjustment``).

Unit tests drive one :class:`AdjustmentStream` over hand-built
placements and check its FIFO after every lifecycle call. The
conservation tests then wrap every ``LayerPipeline`` lifecycle method of
whole elastic and churn runs and check, after each call, that every
emitted action is committed, dropped or still pending.
"""

import numpy as np
import pytest

from repro.bench.churn import degradation_run
from repro.cluster.events import ClusterEvent, ElasticitySchedule
from repro.config import (
    ClusterConfig,
    MoEModelConfig,
    SchedulerConfig,
    WorkloadConfig,
)
from repro.core.placement import Placement
from repro.core.primitives import Expand, Migrate, Shrink
from repro.exceptions import PlacementError
from repro.runtime.adjustment import AdjustmentStream
from repro.runtime.pipeline import LayerPipeline, build_engine
from repro.sim.churn import churn_scenario_run
from repro.training.loop import simulate_pipeline
from repro.workload.synthetic import make_multilayer_trace

# Three experts on three GPUs, two replicas each: every GPU holds two
# vExperts and has one free slot.
COUNTS = [[1, 1, 0], [1, 0, 1], [0, 1, 1]]


def make_stream(slots=3, best_effort=True, elastic=False):
    active = Placement(np.array(COUNTS), slots)
    target = active.copy()
    stream = AdjustmentStream(active, target, best_effort, elastic)
    return stream, active, target


def emit(stream, target, actions, work):
    """Book ``actions`` on the target, as a caller must, then emit them."""
    for action in actions:
        action.apply(target)
    return stream.emit(actions, work)


def assert_conserved(stream):
    assert stream.emitted == stream.committed + stream.dropped + stream.pending


class TestEmitAndAdvance:
    def test_partial_payments_carry_across_calls_in_fifo_order(self):
        stream, active, target = make_stream()
        first = Expand(expert=0, gpu=2, source_gpu=0)
        second = Expand(expert=1, gpu=1, source_gpu=0)
        assert emit(stream, target, (first,), 1.0) == 0.0
        assert emit(stream, target, (second,), 2.0) == 0.0
        assert stream.held and stream.pending == 2 and stream.emitted == 2
        assert stream.actions() == (first, second)
        assert active == Placement(np.array(COUNTS), 3)

        # 0.75 s leaves the head 0.25 s short; the next 0.75 s pays it
        # and carries 0.5 s to the second entry.
        assert stream.advance(0.75) == 0
        assert stream.advance(0.75) == 1
        assert active.count(0, 2) == 1 and active.count(1, 1) == 0
        assert stream.actions() == (second,)
        assert stream.advance(1.25) == 0
        assert stream.advance(0.25) == 1
        assert not stream.held and stream.pending == 0
        assert stream.committed == 2
        assert active == target
        assert_conserved(stream)

    def test_a_later_cheap_entry_waits_behind_the_head(self):
        stream, active, target = make_stream()
        emit(stream, target, (Expand(expert=0, gpu=2, source_gpu=0),), 4.0)
        emit(stream, target, (Expand(expert=1, gpu=1, source_gpu=0),), 0.5)
        assert stream.advance(0.5) == 0
        assert stream.pending == 2
        assert stream.advance(4.0) == 2
        assert active == target

    def test_empty_emission_queues_nothing(self):
        stream, _, _ = make_stream()
        assert stream.emit((), 3.0) == 0.0
        assert not stream.held and stream.emitted == 0

    def test_blocking_mode_commits_at_once(self):
        stream, active, target = make_stream(best_effort=False)
        actions = (
            Shrink(expert=1, gpu=0),
            Expand(expert=2, gpu=0, source_gpu=1),
        )
        assert emit(stream, target, actions, 1.5) == 1.5
        assert not stream.held and stream.pending == 0
        assert stream.actions() == ()
        assert stream.emitted == stream.committed == 2
        assert active == target
        assert stream.advance(10.0) == 0


class TestCommitObsoleted:
    def _stale_expand(self, elastic):
        """An Expand whose source replica the active side lost since."""
        stream, active, target = make_stream(elastic=elastic)
        emit(stream, target, (Expand(expert=0, gpu=2, source_gpu=1),), 1.0)
        active.remove_vexpert(0, 1)
        target.remove_vexpert(0, 1)
        return stream, active, target

    def test_elastic_stream_drops_and_reverts(self):
        stream, active, target = self._stale_expand(elastic=True)
        assert stream.advance(1.0) == 0
        assert stream.dropped == 1 and not stream.held
        assert active == target
        assert_conserved(stream)

    def test_static_stream_raises(self):
        stream, _, _ = self._stale_expand(elastic=False)
        with pytest.raises(PlacementError):
            stream.advance(1.0)


class TestDropTouching:
    def test_reverts_newest_first_and_rescales_survivors(self):
        stream, active, target = make_stream()
        expand = Expand(expert=0, gpu=2, source_gpu=0)
        shrink_back = Shrink(expert=0, gpu=2)
        survivor = Shrink(expert=1, gpu=0)
        emit(stream, target, (expand,), 1.0)
        emit(stream, target, (shrink_back, survivor), 4.0)

        assert stream.drop_touching(frozenset({2})) == 2
        # Oldest first, undoing the Expand would fail (the Shrink already
        # removed its replica) and undoing the Shrink would then leave a
        # replica the active side never had.
        assert target.count(0, 2) == active.count(0, 2) == 0
        # The emptied first entry left the FIFO; the second keeps half
        # of its 4 s for its one surviving action.
        assert stream.actions() == (survivor,)
        assert stream.dropped == 2 and stream.pending == 1
        assert stream.advance(1.5) == 0
        assert stream.advance(0.5) == 1
        assert active == target
        assert_conserved(stream)

    def test_migrate_reverts_as_a_swap(self):
        stream, active, target = make_stream()
        emit(stream, target, (Migrate(0, 0, 2, 2),), 1.0)
        assert target != active
        assert stream.drop_touching(frozenset({0})) == 1
        assert target == active and not stream.held


class TestSteal:
    def _three_expands(self):
        """Four slots per GPU; three pending Expands, two onto GPU 1."""
        stream, active, target = make_stream(slots=4)
        elsewhere = Expand(expert=0, gpu=2, source_gpu=0)
        only_copy_safe = Expand(expert=1, gpu=1, source_gpu=0)
        second_copy = Expand(expert=2, gpu=1, source_gpu=1)
        emit(stream, target, (elsewhere,), 1.0)
        emit(stream, target, (only_copy_safe,), 1.0)
        emit(stream, target, (second_copy, Shrink(expert=0, gpu=0)), 2.0)
        return stream, active, target, (elsewhere, only_copy_safe, second_copy)

    def test_first_expand_onto_the_device_in_fifo_order(self):
        stream, _, _, (_, first, second) = self._three_expands()
        assert stream.find_expand(None, 1, safe=[0, 1, 2]) is first
        assert stream.find_expand(2, 1, safe=[0, 1, 2]) is second
        assert stream.find_expand(None, 0, safe=[0, 1, 2]) is None

    def test_victim_must_keep_a_safe_replica(self):
        stream, _, _, (_, first, second) = self._three_expands()
        # With only GPU 1 safe, stealing expert 1's copy there would
        # leave it no safe replica; expert 2 holds two vExperts there.
        assert stream.find_expand(None, 1, safe=[1]) is second

    def test_expand_whose_replica_is_gone_does_not_qualify(self):
        stream, _, target, (_, first, _) = self._three_expands()
        emit(stream, target, (Shrink(expert=1, gpu=1),), 1.0)
        assert stream.find_expand(1, 1, safe=[0, 1, 2]) is None

    def test_cancelling_a_found_expand_frees_its_slot(self):
        stream, active, target, (elsewhere, first, second) = (
            self._three_expands()
        )
        stream.cancel(stream.find_expand(2, 1, safe=[1]))
        assert target.count(2, 1) == 1  # its slot is free again
        assert stream.dropped == 1 and stream.pending == 3
        assert stream.actions() == (elsewhere, first, Shrink(expert=0, gpu=0))
        # The third entry keeps half its 2 s for the Shrink.
        assert stream.advance(2.0) == 2
        assert stream.advance(1.0) == 1
        assert active == target
        assert_conserved(stream)


class TestCancel:
    def test_cancel_undoes_keeps_order_and_rescales(self):
        stream, active, target = make_stream()
        shrink = Shrink(expert=1, gpu=0)
        expand = Expand(expert=0, gpu=2, source_gpu=0)
        emit(stream, target, (shrink, expand), 2.0)
        stream.cancel(shrink)
        assert target.count(1, 0) == 1  # the Shrink is undone
        assert stream.actions() == (expand,)
        assert stream.dropped == 1
        assert stream.advance(0.5) == 0
        assert stream.advance(0.5) == 1
        assert active == target
        assert_conserved(stream)

    def test_cancelling_the_last_action_releases_the_stream(self):
        stream, active, target = make_stream()
        expand = Expand(expert=0, gpu=2, source_gpu=0)
        emit(stream, target, (expand,), 5.0)
        stream.cancel(expand)
        assert not stream.held and stream.pending == 0
        assert active == target
        assert_conserved(stream)


def test_drain_copies_count_as_emitted_and_committed():
    stream, _, _ = make_stream()
    stream.record_drain([Expand(expert=0, gpu=2, source_gpu=0)])
    assert stream.emitted == stream.committed == 1
    assert not stream.held


# ----------------------------------------------------------------------
# Conservation over whole runs
# ----------------------------------------------------------------------
LIFECYCLE = (
    "begin_step",
    "advance_stream",
    "handle_failure",
    "handle_recovery",
    "prepare_drain",
)


@pytest.fixture
def conservation(monkeypatch):
    """Check ``emitted == committed + dropped + pending`` on a layer after
    every lifecycle call; records the calls and each layer last seen."""
    audit = {"checks": 0, "layers": {}}

    def checked(name, method):
        def run(self, *args, **kwargs):
            result = method(self, *args, **kwargs)
            assert self.emitted_actions == (
                self.committed_actions
                + self.dropped_actions
                + self.pending_actions
            ), f"{name} broke conservation"
            audit["checks"] += 1
            audit["layers"][id(self)] = self
            return result

        return run

    for name in LIFECYCLE:
        monkeypatch.setattr(
            LayerPipeline, name, checked(name, getattr(LayerPipeline, name))
        )
    return audit


def _totals(audit):
    layers = audit["layers"].values()
    return {
        kind: sum(getattr(layer, f"{kind}_actions") for layer in layers)
        for kind in ("emitted", "committed", "dropped", "pending")
    }


def test_elastic_engine_run_conserves_actions(conservation):
    model = MoEModelConfig(
        "conserve", num_layers=4, d_model=256, d_ffn=1024, num_experts=16
    )
    cluster = ClusterConfig(num_nodes=2, gpus_per_node=4)
    elasticity = ElasticitySchedule(
        [
            ClusterEvent(step=4, kind="fail", gpu=2),
            ClusterEvent(step=9, kind="recover", gpu=2),
        ]
    )
    engine = build_engine(
        cluster, model, num_moe_layers=2, seed=1, elasticity=elasticity
    )
    trace = make_multilayer_trace(
        2,
        model.num_experts,
        cluster.num_gpus,
        WorkloadConfig(
            tokens_per_step=262_144, num_steps=16, skew=1.3, drift=0.3, seed=3
        ),
    )
    simulate_pipeline(engine, trace)
    totals = _totals(conservation)
    assert conservation["checks"] >= 2 * 2 * 16
    assert totals["committed"] > 0
    assert engine.committed_actions == totals["committed"]
    # Re-homes and refills are emitted on top of the scheduler's plans.
    planned = sum(
        len(outcome.actions)
        for layer in engine.layers
        for outcome in layer.scheduler.history
    )
    assert totals["emitted"] > planned


@pytest.mark.parametrize("best_effort", [False, True])
def test_per_step_actions_sum_to_committed(best_effort):
    """Every commit is reported by exactly one step: a blocking layer's
    re-homes and refills (committed at once, outside the scheduler's
    plan) count in the step whose elasticity event emitted them."""
    model = MoEModelConfig(
        "per-step", num_layers=4, d_model=256, d_ffn=1024, num_experts=16
    )
    cluster = ClusterConfig(num_nodes=2, gpus_per_node=4)
    elasticity = ElasticitySchedule(
        [
            ClusterEvent(step=4, kind="fail", gpu=2),
            ClusterEvent(step=9, kind="recover", gpu=2),
        ]
    )
    engine = build_engine(
        cluster,
        model,
        num_moe_layers=4,
        seed=1,
        elasticity=elasticity,
        scheduler_config=SchedulerConfig(
            best_effort=best_effort, min_replicas=2
        ),
    )
    trace = make_multilayer_trace(
        4,
        model.num_experts,
        cluster.num_gpus,
        WorkloadConfig(
            tokens_per_step=262_144, num_steps=20, skew=1.3, drift=0.3, seed=3
        ),
    )
    results = simulate_pipeline(engine, trace).results
    per_step = sum(sum(r.layer_actions) for r in results)
    assert engine.committed_actions > 0
    assert per_step == engine.committed_actions
    # The blocking run re-homes more than its scheduler ever planned.
    planned = sum(
        len(outcome.actions)
        for layer in engine.layers
        for outcome in layer.scheduler.history
    )
    if not best_effort:
        assert per_step > planned


@pytest.mark.parametrize(
    "run, cancelled",
    [
        # Revocation notices steal queued Expands' slots for drain copies.
        (lambda: churn_scenario_run(smoke=True), {Expand}),
        # Correlated loss cancels orphaning Shrinks, stealing Expands'
        # slots for some of them.
        (lambda: degradation_run(smoke=True), {Expand, Shrink}),
    ],
    ids=["spot-pair", "degradation-pair"],
)
def test_churn_pair_conserves_actions(conservation, monkeypatch, run, cancelled):
    kinds = set()
    drains = []
    cancel = AdjustmentStream.cancel
    record_drain = AdjustmentStream.record_drain

    def spied_cancel(self, action):
        kinds.add(type(action))
        cancel(self, action)

    def spied_record_drain(self, actions):
        drains.append(len(actions))
        record_drain(self, actions)

    monkeypatch.setattr(AdjustmentStream, "cancel", spied_cancel)
    monkeypatch.setattr(AdjustmentStream, "record_drain", spied_record_drain)
    run()
    assert conservation["checks"] > 0
    assert kinds == cancelled
    assert sum(drains) > 0
    assert _totals(conservation)["dropped"] > 0
