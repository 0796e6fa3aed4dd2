"""Closed SLO loop under capacity loss: autoscaler, churn, degradation.

The ISSUE-8 invariant layer. A Hypothesis property pins the elastic
engine's churn semantics -- across any interleaving of revoke (with its
notice-window drain), provision, fail and recover events the live-set
accounting is conserved, no placement keeps a replica on a dead device,
and every expert survives while the pool stays at or above the
replication floor. Around it: deterministic unit coverage of
:class:`~repro.sim.churn.SpotRevocationSource` (wave delivery, notice
drains, outage recovery, dead-device skips),
:class:`~repro.sim.sources.AutoscalerSource` (pressure scale-up with
provisioning delay, calm scale-down, notice-window replacement
requests), the cost integral :func:`device_seconds_provisioned`, and the
paired churn experiment plus graceful-degradation pair the
``python -m repro churn`` benchmark gates on.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.gates import AUTOSCALE_CHURN
from repro.bench.harness import cluster_for
from repro.cluster.events import ClusterEvent, ClusterState, ElasticitySchedule
from repro.config import MoEModelConfig
from repro.core.trigger import TriggerSignals
from repro.exceptions import ConfigurationError, SimulationError
from repro.runtime.pipeline import build_engine
from repro.serving.baseline import serving_scheduler_config
from repro.sim.churn import (
    ChurnScenarioConfig,
    SpotRevocationSource,
    build_churn_scenario,
    churn_scenario_run,
    device_seconds_provisioned,
)
from repro.sim.kernel import Priority
from repro.sim.scenario import Scenario
from repro.sim.sources import AutoscalerSource


# ---------------------------------------------------------------------------
# A minimal engine stand-in: the churn sources only touch the cluster
# state, the event log, and the two capacity entry points.
# ---------------------------------------------------------------------------
class StubEngine:
    DRAIN_SECONDS_PER_GPU = 0.25

    def __init__(self, num_gpus=6, initial_live=4):
        self.cluster_state = ClusterState(num_gpus, initial_live=initial_live)
        self.event_log = []
        self.drained = []

    def apply_cluster_events(self, events, when):
        for event in events:
            if event.kind in ("fail", "revoke"):
                if not self.cluster_state.is_alive(event.gpu):
                    continue
                self.cluster_state.fail(event.gpu)
            elif event.kind == "provision":
                if self.cluster_state.is_alive(event.gpu):
                    continue
                self.cluster_state.provision(event.gpu, event.factor)
            elif event.kind == "recover":
                if self.cluster_state.is_alive(event.gpu):
                    continue
                self.cluster_state.recover(event.gpu)
            self.event_log.append((when, event))

    def notify_revocation(self, gpus):
        doomed = tuple(
            g for g in gpus if self.cluster_state.is_alive(int(g))
        )
        self.drained.append(doomed)
        return self.DRAIN_SECONDS_PER_GPU * len(doomed)


def signals(p99=None, queue=0.0, attainment=None):
    return TriggerSignals(
        step=0,
        balance_metric=None,
        p99_latency=p99,
        queue_tokens=queue,
        slo_attainment=attainment,
    )


class ScriptedProbe:
    """Replays a fixed signal sequence, holding the last one forever."""

    def __init__(self, sequence):
        self._sequence = list(sequence)
        self.calls = 0

    def __call__(self):
        index = min(self.calls, len(self._sequence) - 1)
        self.calls += 1
        return self._sequence[index]


class CallAt:
    """Schedules one callable on the kernel at a fixed time."""

    def __init__(self, when, fn, priority=Priority.CONTROL):
        self._when = when
        self._fn = fn
        self._priority = priority

    def prime(self, kernel, scenario):
        kernel.schedule_at(self._when, self._fn, self._priority, label="call")


# ---------------------------------------------------------------------------
# ChurnScenarioConfig
# ---------------------------------------------------------------------------
class TestChurnScenarioConfig:
    def test_defaults_are_valid(self):
        config = ChurnScenarioConfig()
        assert config.total_gpus == config.seed_gpus + config.standby_gpus

    @pytest.mark.parametrize(
        "changes",
        [
            {"num_requests": 0},
            {"load": 0.0},
            {"seed_gpus": 1},
            {"standby_gpus": -1},
            {"num_waves": -1},
            {"wave_size": 0},
            # 4 waves x 2 devices would leave zero seed devices.
            {"num_waves": 4, "wave_size": 2},
            {"days": 0.0},
            {"standby_speed_factors": ()},
            {"standby_speed_factors": (0.5, 0.0)},
            {"attainment_floor": 0.0},
            {"attainment_floor": 1.5},
        ],
    )
    def test_validation(self, changes):
        with pytest.raises(ConfigurationError):
            ChurnScenarioConfig(**changes)

    def test_replace_returns_new_config(self):
        base = ChurnScenarioConfig()
        outage = base.replace(recover_after_fraction=0.5)
        assert outage.recover_after_fraction == 0.5
        assert base.recover_after_fraction is None

    def test_smoke_scales_requests_with_floor(self):
        config = ChurnScenarioConfig(num_requests=5000).smoke()
        assert 200 <= config.num_requests < 5000


# ---------------------------------------------------------------------------
# device_seconds_provisioned
# ---------------------------------------------------------------------------
class TestDeviceSeconds:
    def test_constant_pool_is_rectangle(self):
        engine = StubEngine()
        assert device_seconds_provisioned(engine, 4, 10.0) == 40.0

    def test_step_function_integration(self):
        engine = StubEngine(num_gpus=6, initial_live=4)
        engine.apply_cluster_events(
            (ClusterEvent(step=0, kind="revoke", gpu=0),), when=1.0
        )
        engine.apply_cluster_events(
            (ClusterEvent(step=0, kind="provision", gpu=4),), when=3.0
        )
        # 4 devices for 1s, 3 devices for 2s, 4 devices for 7s.
        assert device_seconds_provisioned(engine, 4, 10.0) == pytest.approx(
            4 * 1 + 3 * 2 + 4 * 7
        )

    def test_transitions_past_duration_are_clamped(self):
        engine = StubEngine(num_gpus=6, initial_live=4)
        engine.apply_cluster_events(
            (ClusterEvent(step=0, kind="revoke", gpu=0),), when=50.0
        )
        assert device_seconds_provisioned(engine, 4, 10.0) == 40.0

    def test_zero_duration_costs_nothing(self):
        assert device_seconds_provisioned(StubEngine(), 4, 0.0) == 0.0


# ---------------------------------------------------------------------------
# SpotRevocationSource
# ---------------------------------------------------------------------------
class TestSpotRevocationSource:
    def test_validation(self):
        engine = StubEngine()
        with pytest.raises(ConfigurationError):
            SpotRevocationSource(engine, [], notice_window=-1.0)
        with pytest.raises(ConfigurationError):
            SpotRevocationSource(engine, [], recover_after=0.0)

    def test_wave_applies_with_notice_and_drain(self):
        engine = StubEngine(num_gpus=6, initial_live=4)
        spot = SpotRevocationSource(
            engine, [(5.0, (0, 1))], notice_window=2.0
        )
        Scenario(name="wave", sources=(spot,), duration=10.0).run()
        assert spot.noticed == [(3.0, (0, 1))]
        assert spot.applied == [(5.0, (0, 1))]
        assert not engine.cluster_state.is_alive(0)
        assert not engine.cluster_state.is_alive(1)
        # Notice-time drain plus the deadline re-sweep, both charged.
        assert engine.drained == [(0, 1), (0, 1)]
        assert spot.drain_seconds == pytest.approx(
            2 * 2 * StubEngine.DRAIN_SECONDS_PER_GPU
        )

    def test_no_notice_means_no_drain(self):
        engine = StubEngine(num_gpus=6, initial_live=4)
        spot = SpotRevocationSource(engine, [(5.0, (0,))])
        Scenario(name="wave", sources=(spot,), duration=10.0).run()
        assert spot.noticed == []
        assert engine.drained == []
        assert spot.applied == [(5.0, (0,))]

    def test_already_dead_devices_are_skipped(self):
        engine = StubEngine(num_gpus=6, initial_live=4)
        engine.cluster_state.fail(1)
        spot = SpotRevocationSource(engine, [(5.0, (0, 1))])
        Scenario(name="wave", sources=(spot,), duration=10.0).run()
        assert spot.applied == [(5.0, (0,))]

    def test_fully_dead_wave_is_not_recorded(self):
        engine = StubEngine(num_gpus=6, initial_live=4)
        engine.cluster_state.fail(1)
        spot = SpotRevocationSource(engine, [(5.0, (1,))])
        Scenario(name="wave", sources=(spot,), duration=10.0).run()
        assert spot.applied == []

    def test_outage_mode_recovers_devices(self):
        engine = StubEngine(num_gpus=6, initial_live=4)
        spot = SpotRevocationSource(
            engine, [(2.0, (0, 1))], recover_after=3.0
        )
        Scenario(name="outage", sources=(spot,), duration=10.0).run()
        assert spot.applied == [(2.0, (0, 1))]
        assert spot.recovered == [(5.0, (0, 1))]
        assert engine.cluster_state.is_alive(0)
        assert engine.cluster_state.is_alive(1)

    def test_waves_past_horizon_never_fire(self):
        engine = StubEngine(num_gpus=6, initial_live=4)
        spot = SpotRevocationSource(engine, [(50.0, (0,))])
        Scenario(name="late", sources=(spot,), duration=10.0).run()
        assert spot.applied == []
        assert engine.cluster_state.is_alive(0)


# ---------------------------------------------------------------------------
# AutoscalerSource
# ---------------------------------------------------------------------------
PRESSURE = signals(p99=10.0)
CALM = signals(p99=0.1, queue=0.0, attainment=1.0)
NEUTRAL = signals(p99=0.9, queue=0.0, attainment=1.0)


def make_autoscaler(engine, probe, standby=(4, 5), **overrides):
    kwargs = dict(
        scalable_gpus=standby,
        interval=1.0,
        provisioning_delay=0.5,
        p99_target=1.0,
        queue_limit_tokens=100.0,
        attainment_floor=None,
        scale_down_after=0,
    )
    kwargs.update(overrides)
    return AutoscalerSource(engine, probe, **kwargs)


class TestAutoscalerSource:
    def test_validation(self):
        engine = StubEngine()
        with pytest.raises(SimulationError):
            make_autoscaler(engine, ScriptedProbe([CALM]), interval=0.0)
        with pytest.raises(SimulationError):
            make_autoscaler(
                engine, ScriptedProbe([CALM]), provisioning_delay=-1.0
            )
        with pytest.raises(SimulationError):
            make_autoscaler(engine, ScriptedProbe([CALM]), p99_target=0.0)
        with pytest.raises(SimulationError):
            make_autoscaler(
                engine, ScriptedProbe([CALM]), scale_down_margin=0.0
            )

    def test_requires_finite_horizon(self):
        engine = StubEngine()
        auto = make_autoscaler(engine, ScriptedProbe([CALM]))
        with pytest.raises(SimulationError):
            Scenario(name="open", sources=(auto,), duration=None).run()

    def test_pressure_scales_up_after_delay(self):
        engine = StubEngine(num_gpus=6, initial_live=4)
        auto = make_autoscaler(
            engine,
            ScriptedProbe([PRESSURE, PRESSURE, NEUTRAL]),
            provisioning_delay=0.5,
            speed_factors={5: 0.5},
        )
        Scenario(name="up", sources=(auto,), duration=10.0).run()
        assert auto.scale_ups == 2
        assert auto.provisioned_gpus == (4, 5)
        assert engine.cluster_state.is_alive(4)
        assert engine.cluster_state.is_alive(5)
        # The heterogeneous standby device joined at its slower factor.
        assert engine.cluster_state.speed_view()[5] == 0.5
        actions = [action for _, action, _ in auto.decisions]
        assert actions == ["request", "provision", "request", "provision"]
        # Requests at the first two ticks, arrivals one delay later.
        times = [when for when, _, _ in auto.decisions]
        assert times == [1.0, 1.5, 2.0, 2.5]

    def test_calm_never_scales(self):
        engine = StubEngine(num_gpus=6, initial_live=4)
        auto = make_autoscaler(engine, ScriptedProbe([CALM]))
        Scenario(name="idle", sources=(auto,), duration=10.0).run()
        assert auto.scale_ups == 0
        assert auto.decisions == []

    def test_provision_past_horizon_never_delivers(self):
        engine = StubEngine(num_gpus=6, initial_live=4)
        auto = make_autoscaler(
            engine, ScriptedProbe([PRESSURE, NEUTRAL]),
            provisioning_delay=100.0,
        )
        Scenario(name="late", sources=(auto,), duration=10.0).run()
        assert [a for _, a, _ in auto.decisions] == ["request"]
        assert auto.scale_ups == 0
        assert not engine.cluster_state.is_alive(4)

    def test_calm_streak_releases_newest_to_standby(self):
        engine = StubEngine(num_gpus=6, initial_live=4)
        probe = ScriptedProbe([PRESSURE] + [CALM] * 10)
        auto = make_autoscaler(engine, probe, scale_down_after=3)
        Scenario(name="down", sources=(auto,), duration=10.0).run()
        assert auto.scale_ups == 1
        assert auto.scale_downs == 1
        assert auto.provisioned_gpus == ()
        # Released devices go back to the standby pool, dark again.
        assert not engine.cluster_state.is_alive(4)
        actions = [a for _, a, _ in auto.decisions]
        assert actions == ["request", "provision", "revoke"]
        # Pressure at t=1, arrival t=1.5, calm ticks t=2..4 release at 4.
        assert auto.decisions[-1][0] == 4.0

    def test_scale_down_disabled_by_default(self):
        engine = StubEngine(num_gpus=6, initial_live=4)
        probe = ScriptedProbe([PRESSURE] + [CALM] * 20)
        auto = make_autoscaler(engine, probe, scale_down_after=0)
        Scenario(name="hold", sources=(auto,), duration=10.0).run()
        assert auto.scale_downs == 0
        assert engine.cluster_state.is_alive(4)

    def test_notice_drains_and_requests_replacements(self):
        engine = StubEngine(num_gpus=6, initial_live=4)
        auto = make_autoscaler(
            engine, ScriptedProbe([NEUTRAL]), provisioning_delay=0.5
        )
        notice = CallAt(2.2, lambda: auto.on_revocation_notice((0, 1)))
        Scenario(name="notice", sources=(auto, notice), duration=10.0).run()
        assert auto.notices == 1
        assert engine.drained == [(0, 1)]
        assert auto.drain_seconds == pytest.approx(
            2 * StubEngine.DRAIN_SECONDS_PER_GPU
        )
        # One replacement request per doomed device, delivered after the
        # provisioning delay.
        assert auto.scale_ups == 2
        assert engine.cluster_state.is_alive(4)
        assert engine.cluster_state.is_alive(5)

    def test_notice_reclaims_controller_provisioned_device(self):
        engine = StubEngine(num_gpus=6, initial_live=4)
        probe = ScriptedProbe([PRESSURE, NEUTRAL])
        auto = make_autoscaler(engine, probe, provisioning_delay=0.0)
        notice = CallAt(3.0, lambda: auto.on_revocation_notice((4,)))
        Scenario(name="reclaim", sources=(auto, notice), duration=10.0).run()
        # GPU 4 was provisioned by the controller, then reclaimed by the
        # spot notice: it must leave the LIFO scale-down book (a dead
        # device is not releasable capacity) and trigger a replacement.
        assert 4 not in auto.provisioned_gpus
        assert auto.provisioned_gpus == (5,)
        assert auto.scale_ups == 2


# ---------------------------------------------------------------------------
# The Hypothesis interleaving property on a real elastic engine
# ---------------------------------------------------------------------------
def make_property_engine():
    model = MoEModelConfig(
        name="churn-prop", num_layers=4, d_model=64, d_ffn=256,
        num_experts=4,
    )
    cluster = cluster_for(8)
    schedule = ElasticitySchedule(())
    return build_engine(
        cluster,
        model,
        num_moe_layers=2,
        scheduler_config=serving_scheduler_config(
            model, cluster, schedule, migrate=True
        ),
        elasticity=schedule,
        seed=0,
        inference=True,
        initial_live=6,
    )


OPS = st.lists(
    st.tuples(
        st.sampled_from(("revoke", "fail", "provision", "recover")),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=15, deadline=None)
@given(ops=OPS)
def test_property_churn_interleavings_conserve_the_pool(ops):
    """Any revoke/provision/fail/recover interleaving keeps the books.

    After every event (with the serving stream granted bandwidth in
    between, as in a live scenario): the engine's live set matches an
    independently tracked mirror, no placement -- active or target --
    keeps a replica on a dead device, and every expert of every layer
    still owns at least one live replica. Losses that would breach the
    floor guards are skipped, mirroring ClusterState's own last-device
    protection.
    """
    engine = make_property_engine()
    state = engine.cluster_state
    live = set(state.live_gpus())
    clock = 0.0
    for kind, gpu in ops:
        clock += 1.0
        if kind in ("revoke", "fail"):
            # Keep the pool at or above the replication floor; real
            # deployments cap correlated loss the same way the churn
            # scenario's wave constraint does.
            if gpu not in live or len(live) <= 2:
                continue
            if kind == "revoke":
                # Spot semantics: the notice-window drain runs first.
                engine.notify_revocation((gpu,))
            engine.apply_cluster_events(
                (ClusterEvent(step=0, kind=kind, gpu=gpu),), when=clock
            )
            live.discard(gpu)
        else:
            if gpu in live:
                continue
            engine.apply_cluster_events(
                (ClusterEvent(step=0, kind=kind, gpu=gpu),), when=clock
            )
            live.add(gpu)
        # The serving stream keeps draining between events.
        engine.advance_streams(1e9)

        assert set(state.live_gpus()) == live
        dead = [g for g in range(state.num_gpus) if g not in live]
        for layer in engine.layers:
            for placement in (
                layer.active_placement, layer.target_placement
            ):
                counts = placement.counts
                assert counts[:, dead].sum() == 0, (
                    f"replica on dead device after {kind}({gpu})"
                )
                survivors = counts[:, sorted(live)].sum(axis=1)
                assert (survivors >= 1).all(), (
                    f"expert lost every replica after {kind}({gpu})"
                )


# ---------------------------------------------------------------------------
# The paired experiment end to end
# ---------------------------------------------------------------------------
class TestChurnScenario:
    @pytest.fixture(scope="class")
    def smoke_report(self):
        return churn_scenario_run(smoke=True)

    def test_smoke_pair_passes_its_gate(self, smoke_report):
        assert smoke_report["ok"] is True
        assert smoke_report["gates"]["autoscaled_beats_fixed"] is True
        assert smoke_report["attainment_gain"] > 0

    def test_report_shape(self, smoke_report):
        assert smoke_report["suite"] == "churn_pair"
        for arm in ("fixed", "autoscaled"):
            data = smoke_report[arm]
            assert data["requests_unaccounted"] == 0
            assert data["experts_survive"] is True
            assert data["device_seconds"] > 0
            assert 0.0 <= data["slo_attainment"] <= 1.0
        assert "autoscaler" not in smoke_report["fixed"]
        controller = smoke_report["autoscaled"]["autoscaler"]
        assert controller["scale_ups"] > 0
        assert controller["notices"] > 0
        assert controller["decisions"]

    def test_check_passes_a_bare_row(self, smoke_report, tmp_path, capsys):
        import json

        from repro.cli import main

        row = tmp_path / "churn_row.json"
        row.write_text(json.dumps(smoke_report))
        assert main(["check", str(row)]) == 0
        assert f"{row}: OK (" in capsys.readouterr().out

    def test_waves_and_notices_delivered(self, smoke_report):
        scenario = smoke_report["scenario"]
        expected = scenario["num_waves"] * scenario["wave_size"]
        assert smoke_report["fixed"]["devices_revoked"] == expected
        assert smoke_report["autoscaled"]["devices_revoked"] == expected
        assert (
            smoke_report["fixed"]["notices_delivered"]
            == scenario["num_waves"]
        )

    def test_autoscaled_pool_grows_beyond_seed(self, smoke_report):
        # The controller provisioned real capacity: the autoscaled arm
        # billed more device-seconds than a fixed pool shrunk by
        # revocations ever could.
        provenance = smoke_report["provenance"]
        assert provenance["seed_gpus"] == 8
        assert smoke_report["autoscaled"]["device_seconds"] > 0

    def test_build_scenario_wires_the_pair(self):
        config = ChurnScenarioConfig(num_requests=10)
        fixed = build_churn_scenario(config, autoscale=False)
        assert fixed.autoscaler is None
        assert len(fixed.scenario.sources) == 2
        auto = build_churn_scenario(config, autoscale=True)
        assert auto.autoscaler is not None
        assert len(auto.scenario.sources) == 3
        assert auto.provenance["waves"] == fixed.provenance["waves"]


# ---------------------------------------------------------------------------
# The benchmark layer: churn matrix + graceful-degradation pair
# ---------------------------------------------------------------------------
class TestChurnBench:
    def test_matrix_covers_the_four_variants(self):
        from repro.bench.churn import churn_matrix_configs

        configs = churn_matrix_configs(seed=3)
        assert set(configs) == {
            "spot", "outage", "heterogeneous", "multiday"
        }
        assert configs["spot"].recover_after_fraction is None
        assert configs["outage"].recover_after_fraction is not None
        assert any(
            f < 1.0 for f in configs["heterogeneous"].standby_speed_factors
        )
        assert configs["multiday"].days > configs["spot"].days
        assert all(c.seed == 3 for c in configs.values())

    def test_degradation_pair_gates(self):
        from repro.bench.churn import degradation_run

        result = degradation_run(smoke=True)
        assert result["ok"] is True, result["gates"]
        shed_on = result["shed_on"]["serving"]
        shed_off = result["shed_off"]["serving"]
        # The shed arm tracked every shed request against the batch
        # class; nothing vanished in either arm.
        assert shed_on["shed_requests"] > 0
        assert shed_on["per_class"]["interactive"]["requests_shed"] == 0
        assert result["shed_on"]["requests_unaccounted"] == 0
        assert result["shed_off"]["requests_unaccounted"] == 0
        # Graceful: interactive attainment degrades strictly later than
        # batch, and shedding never hurts the protected class.
        assert (
            shed_on["per_class"]["interactive"]["slo_attainment"]
            > shed_on["per_class"]["batch"]["slo_attainment"]
        )
        assert (
            shed_on["per_class"]["interactive"]["slo_attainment"]
            >= shed_off["per_class"]["interactive"]["slo_attainment"]
        )

    def test_full_report_shape_and_persistence(self, tmp_path):
        from repro.bench.churn import churn_bench_run
        from repro.bench.perf import write_report

        report = churn_bench_run(smoke=True)
        assert report["suite"] == "autoscale_churn"
        assert report["ok"] is True
        assert report["gates"] == {name: True for name, _ in AUTOSCALE_CHURN}
        assert set(report["rows"]) == {
            "spot", "outage", "heterogeneous", "multiday"
        }
        for row in report["rows"].values():
            assert row["ok"] is True
            assert row["attainment_gain"] > 0
        path = write_report(report, tmp_path / "BENCH_autoscale_churn.json")
        import json

        persisted = json.loads(path.read_text())
        assert persisted["ok"] is True
        assert persisted["degradation"]["gates"]["shed_engaged"] is True
