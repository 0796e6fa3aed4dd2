"""Autoscale-under-churn benchmark: the SLO loop closed end to end.

Two sections feed one report (``BENCH_autoscale_churn.json``):

* A **churn matrix** of paired autoscaled-vs-fixed runs of
  :func:`repro.sim.churn.churn_scenario_run` -- baseline spot
  revocations, an outage variant whose devices rejoin (mirroring the
  composed scenario's fail/recover row), a heterogeneous standby pool of
  slower accelerator generations, and a multi-day diurnal trace with a
  heavier revocation schedule. Every row reports SLO attainment and
  cost-weighted goodput (within-SLO tokens per device-second
  provisioned) for both arms; the gate requires the autoscaled arm to
  strictly beat the fixed pool on attainment in every row while both
  arms account for every request.
* A **graceful-degradation pair**: the identical multi-tenant stream
  (interactive + two batch tenants) through a server that loses two
  devices to a correlated revocation mid-stream, once with
  ``shed_low_priority`` off (arrivals bounce off the full queue
  regardless of class) and once on (lowest-priority queued work is shed
  first, tracked per tenant). The gate requires shed accounting to
  conserve the stream, every shed request to come from the batch class,
  and the interactive class to degrade strictly later than batch --
  higher attainment under the same capacity loss.

Run via ``python -m repro churn [--smoke]``.
"""

from __future__ import annotations

from repro.bench.gates import DEGRADATION, seal
from repro.bench.harness import cluster_for
from repro.bench.serving import (
    _serving_model,
    probe_batch_seconds,
    tenant_mix,
)
from repro.serving.admission import BatchingConfig
from repro.serving.baseline import build_multitenant_serving
from repro.serving.engine import TopicRoutingModel
from repro.serving.requests import merge_tenant_requests
from repro.sim.churn import ChurnScenarioConfig, churn_scenario_run
from repro.sim.scenario import Scenario, smoke_scale


def churn_matrix_configs(seed: int = 0) -> dict[str, ChurnScenarioConfig]:
    """The benchmark's four churn variants, keyed by row name."""
    base = ChurnScenarioConfig(seed=seed)
    return {
        # Spot semantics: revoked devices are gone for good; the
        # controller back-fills from the standby pool.
        "spot": base,
        # Outage semantics (the composed scenario's fail/recover pattern
        # as correlated waves): revoked devices rejoin later, so the
        # fixed arm eventually heals too -- the controller's edge is the
        # window in between.
        "outage": base.replace(recover_after_fraction=0.35),
        # Replacement capacity from older accelerator generations: the
        # standby devices run at a fraction of seed speed.
        "heterogeneous": base.replace(standby_speed_factors=(0.75, 0.5)),
        # A longer trace spanning more diurnal peaks with more (but
        # smaller) revocation waves: three single-device reclaims keep
        # the fixed arm's residual pool large enough to host every
        # expert, so its failure mode is congestion, not state loss.
        "multiday": base.replace(days=5.0, num_waves=3, wave_size=1),
    }


def degradation_run(smoke: bool = False, seed: int = 0) -> dict[str, object]:
    """Shed-on vs shed-off under the same mid-stream capacity loss.

    Both servers run the identical multi-tenant stream and lose the same
    3 of 8 devices to one correlated revocation a quarter of the way in
    (with a notice window, so expert states are drained, never lost).
    The load is calibrated slightly above the *full* pool's capacity:
    after the loss the global queue saturates, which is exactly the
    regime the shedding policy exists for. Deterministic under a fixed
    seed.
    """
    from repro.sim.churn import SpotRevocationSource

    num_moe_layers, num_gpus, num_experts = 2, 8, 16
    num_requests = smoke_scale(400, floor=200) if smoke else 400
    max_batch_tokens = 4096
    load = 1.3
    interactive_share = 0.4
    lost_devices = 3
    loss_at_fraction = 0.25
    notice_fraction = 0.05
    num_topics = 4
    topic_drift = 0.4
    skew = 2.0
    base = probe_batch_seconds(
        num_moe_layers, num_gpus, num_experts, max_batch_tokens, seed=seed
    )
    token_rate = load * max_batch_tokens / base
    mean_tokens = (
        interactive_share * 256 + (1.0 - interactive_share) * 768
    )
    rate_rps = token_rate / mean_tokens
    expected_duration = num_requests / rate_rps
    tenants = tenant_mix(
        base,
        max_batch_tokens,
        num_requests,
        interactive_rate=interactive_share * rate_rps,
        batch_rate=(1.0 - interactive_share) * rate_rps / 2.0,
        interactive_slo_batches=6.0,
        batch_slo_batches=20.0,
        interactive_tokens=256,
        batch_tokens=768,
        num_topics=num_topics,
        topic_drift=topic_drift,
        seed=seed,
    )
    requests = merge_tenant_requests(tenants)
    cluster = cluster_for(num_gpus)
    model = _serving_model(num_moe_layers, num_experts)
    routing = TopicRoutingModel(
        num_moe_layers, num_experts, num_topics, skew=skew, seed=seed
    )
    batching = BatchingConfig(
        max_batch_tokens=max_batch_tokens,
        max_queue_tokens=4 * max_batch_tokens,
    )
    from repro.cluster.events import ElasticitySchedule

    wave = (
        loss_at_fraction * expected_duration,
        tuple(range(lost_devices)),
    )
    arms: dict[str, dict[str, object]] = {}
    for label, shed in (("shed_off", False), ("shed_on", True)):
        server = build_multitenant_serving(
            cluster, model, tenants, batching, requests=requests,
            num_moe_layers=num_moe_layers, routing=routing, skew=skew,
            seed=seed, dynamic=True, admission_policy="priority",
            preemption=True, shed_low_priority=shed,
            elasticity=ElasticitySchedule(()),
        )
        run = server.event_source()
        spot = SpotRevocationSource(
            server.engine,
            [wave],
            notice_window=notice_fraction * expected_duration,
        )
        Scenario(
            name=f"degradation-{label}",
            sources=(spot, run.source),
            duration=2.5 * expected_duration,
        ).run()
        report = run.report()
        summary = report.multitenant_summary()
        arms[label] = {
            "serving": summary,
            "devices_revoked": sum(len(g) for _, g in spot.applied),
            "requests_unaccounted": (
                len(requests) - len(report.records) - len(report.rejected)
            ),
        }

    return seal({
        "scenario": {
            "num_moe_layers": num_moe_layers,
            "num_gpus": num_gpus,
            "num_experts": num_experts,
            "num_requests": len(requests),
            "load": load,
            "rate_rps": rate_rps,
            "interactive_share": interactive_share,
            "lost_devices": lost_devices,
            "loss_at_s": wave[0],
            "notice_window_s": notice_fraction * expected_duration,
            "balanced_batch_s": base,
            "seed": seed,
        },
        **arms,
    }, DEGRADATION)


def churn_bench_run(smoke: bool = False, seed: int = 0) -> dict[str, object]:
    """The full benchmark: churn matrix + degradation pair, one verdict.

    The named gates (:data:`repro.bench.gates.AUTOSCALE_CHURN`) are every
    churn row's pair gates -- autoscaled strictly beating fixed on SLO
    attainment with full accounting and surviving experts -- prefixed by
    the row name, plus every degradation gate.
    """
    rows = {
        name: churn_scenario_run(smoke=smoke, config=config)
        for name, config in churn_matrix_configs(seed).items()
    }
    return seal({
        "suite": "autoscale_churn",
        "smoke": smoke,
        "seed": seed,
        "rows": rows,
        "degradation": degradation_run(smoke=smoke, seed=seed),
    })
