"""The named benchmark gates and ``python -m repro check``.

Every gate of every suite is broken, one at a time, in a copy of that
suite's committed ``BENCH_*.json`` artifact; ``repro check`` must exit 1
and name the broken gate.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.bench.gates import (
    CHURN_ROWS,
    ENGINE_MUST_RUN_GPUS,
    SUITES,
    evaluate,
    run_gates,
    seal,
)
from repro.cli import main
from repro.exceptions import ConfigurationError

REPO = Path(__file__).resolve().parent.parent

ARTIFACTS = {
    "step_overhead": "BENCH_step_overhead.json",
    "scale": "BENCH_scale.json",
    "serving_latency": "BENCH_serving_latency.json",
    "multitenant_serving": "BENCH_multitenant.json",
    "composed_scenario": "BENCH_composed_scenario.json",
    "autoscale_churn": "BENCH_autoscale_churn.json",
}

#: Suites committed only inside another suite's artifact:
#: ``suite -> (host suite, dotted path to one instance)``.
NESTED = {"churn_pair": ("autoscale_churn", "rows.spot")}

#: Marks a field for deletion instead of replacement.
DROP = object()


def zero(_):
    return 0


def false(_):
    return False


#: ``suite -> gate -> (dotted field path, new value or old -> new)``: one
#: edit per gate that breaks exactly the field the gate reads.
CHURN_PAIR_BREAKS = {
    "waves_applied": ("fixed.waves_applied", lambda v: v - 1),
    "devices_revoked": ("fixed.devices_revoked", lambda v: v + 1),
    "requests_accounted": ("autoscaled.requests_unaccounted", 1),
    "experts_survive": ("fixed.experts_survive", false),
    "autoscaler_scaled_up": ("autoscaled.autoscaler.scale_ups", zero),
    "notices_reacted": ("autoscaled.autoscaler.notices", zero),
    "device_seconds_billed": ("fixed.device_seconds", zero),
    "autoscaled_beats_fixed": ("attainment_gain", zero),
}

BREAKS = {
    "churn_pair": CHURN_PAIR_BREAKS,
    "step_overhead": {
        "planner_decisions_match": ("planner.decisions_match", false),
        "kernel_results_match": ("kernel.simulated_results_match", false),
        "kernel_overhead_within_tolerance": ("kernel.within_tolerance", false),
        "zero_fallbacks": ("planner.fallbacks", 1.0),
        "memo_hits": ("memo_hit_rate", zero),
        "serving_events_floor": ("serving_events.events_per_sec", zero),
        "kernel_events_floor": ("kernel_events.events_per_sec", zero),
        "telemetry_results_match": ("kernel.telemetry_results_match", false),
        "telemetry_trace_events": ("kernel.enabled_trace_events", zero),
        "telemetry_timeline_events": ("kernel.enabled_timeline_events", zero),
        "telemetry_metrics_snapshot": ("telemetry.metrics", DROP),
    },
    "scale": {
        "zero_fallbacks": ("sizes.0.planner.fallbacks", 1.0),
        # The last size is the largest, so always at or above the
        # hierarchical-must-win threshold.
        "hierarchical_wins_at_scale": ("sizes.-1.planner.speedup", 0.5),
        "decision_quality": (
            "sizes.0.planner",
            lambda p: {
                **p, "decisions_match": False, "quality_within_epsilon": False
            },
        ),
        "kernel_events_floor": ("sizes.0.kernel_events.events_per_sec", zero),
        "engines_ran": ("sizes.0.engine", {"steps_per_sec": 0.0}),
    },
    "serving_latency": {
        "p99_beats_static": ("flexmoe.p99_latency_s", lambda v: 100 * v),
        "goodput_beats_static": ("flexmoe.goodput_tokens_per_s", zero),
        "ratios_reported": ("p99_speedup", DROP),
    },
    "multitenant_serving": {
        "interactive_beats_fifo": ("interactive_attainment.flexmoe", -1.0),
        "fairness_floor": ("jain_fairness", zero),
        "summaries_reported": ("tenants", DROP),
    },
    "composed_scenario": {
        "requests_served": ("serving.requests_served", zero),
        "requests_accounted": ("requests_unaccounted", 3),
        "cluster_events_applied": ("events_applied", lambda v: v - 1),
        "budget_granted": ("budget_grants", zero),
        "budget_committed": ("budget_committed_actions", zero),
        "actions_reconciled": ("engine_committed_actions", lambda v: v + 1),
        "experts_survive": ("experts_survive", false),
    },
    "autoscale_churn": {
        **{
            f"{row}.{gate}": (f"rows.{row}.{path}", value)
            for row in CHURN_ROWS
            for gate, (path, value) in CHURN_PAIR_BREAKS.items()
        },
        "degradation.loss_applied": (
            "degradation.shed_off.devices_revoked", lambda v: v - 1
        ),
        "degradation.accounting_conserved": (
            "degradation.shed_on.requests_unaccounted", 2
        ),
        "degradation.shed_engaged": (
            "degradation.shed_on.serving.shed_requests", zero
        ),
        "degradation.shed_spares_interactive": (
            "degradation.shed_on.serving.per_class.interactive.requests_shed",
            1,
        ),
        "degradation.interactive_degrades_later": (
            "degradation.shed_on.serving.per_class.batch.slo_attainment",
            2.0,
        ),
        "degradation.shedding_protects_interactive": (
            "degradation.shed_off.serving.per_class.interactive."
            "slo_attainment",
            2.0,
        ),
    },
}


def committed(suite: str) -> dict:
    if suite in NESTED:
        host, path = NESTED[suite]
        report = committed(host)
        for key in path.split("."):
            report = report[key]
        return report
    return json.loads((REPO / ARTIFACTS[suite]).read_text(encoding="utf-8"))


def broken(report: dict, path: str, value) -> dict:
    report = copy.deepcopy(report)
    *parents, leaf = path.split(".")
    node = report
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node[key]
    if isinstance(node, list):
        leaf = int(leaf)
    if value is DROP:
        del node[leaf]
    else:
        node[leaf] = value(node[leaf]) if callable(value) else value
    return report


def test_every_suite_has_a_committed_artifact():
    assert set(ARTIFACTS) | set(NESTED) == set(SUITES)
    for suite in SUITES:
        assert committed(suite)["suite"] == suite, suite


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_every_gate_has_a_breaking_edit(suite):
    assert list(BREAKS[suite]) == [name for name, _ in SUITES[suite]]


@pytest.mark.parametrize(
    "suite, gate",
    [(suite, gate) for suite in sorted(BREAKS) for gate in BREAKS[suite]],
)
def test_check_names_the_broken_gate(suite, gate, tmp_path, capsys):
    path, value = BREAKS[suite][gate]
    target = tmp_path / ARTIFACTS.get(suite, f"{suite}.json")
    target.write_text(json.dumps(broken(committed(suite), path, value)))
    assert main(["check", str(target)]) == 1
    assert f"{target}: FAILED {gate}\n" in capsys.readouterr().out


def test_check_passes_the_committed_artifacts(capsys):
    files = [str(REPO / name) for name in ARTIFACTS.values()]
    assert main(["check", *files]) == 0
    out = capsys.readouterr().out
    assert "FAILED" not in out
    assert out.count(": OK (") == len(files)


def test_check_fails_an_extra_stored_gate(tmp_path, capsys):
    report = committed("step_overhead")
    report["gates"] = {**report["gates"], "retired_gate": True}
    target = tmp_path / "stale.json"
    target.write_text(json.dumps(report))
    assert main(["check", str(target)]) == 1
    assert capsys.readouterr().out == f"{target}: FAILED stale_gates\n"


def test_check_fails_a_flipped_stored_ok(tmp_path, capsys):
    report = committed("serving_latency")
    report["ok"] = not report["ok"]
    target = tmp_path / "stale.json"
    target.write_text(json.dumps(report))
    assert main(["check", str(target)]) == 1
    assert capsys.readouterr().out == f"{target}: FAILED stale_gates\n"


def test_unreadable_file_exits_2(tmp_path, capsys):
    assert main(["check", str(tmp_path / "missing.json")]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["check", str(garbled)]) == 2
    assert capsys.readouterr().err.count("error:") == 2


def test_unknown_suite_exits_2(tmp_path, capsys):
    for payload in ({"suite": "no_such_suite", "ok": True}, {"ok": True}, []):
        target = tmp_path / "report.json"
        target.write_text(json.dumps(payload))
        assert main(["check", str(target)]) == 2
    assert "unknown benchmark suite" in capsys.readouterr().err


def test_unreadable_file_outranks_a_failed_gate(tmp_path):
    failing = tmp_path / "failing.json"
    failing.write_text(json.dumps(
        broken(committed("serving_latency"), "p99_speedup", DROP)
    ))
    assert main(["check", str(failing), str(tmp_path / "missing")]) == 2


def test_evaluate_rejects_unknown_suite():
    with pytest.raises(ConfigurationError):
        evaluate({"suite": "no_such_suite"})


def test_scale_engine_may_skip_only_above_1024_devices():
    report = committed("scale")
    for index, size in enumerate(report["sizes"]):
        skip = {"num_gpus": size["num_gpus"], "skipped": "out of memory"}
        verdict = run_gates(broken(report, f"sizes.{index}.engine", skip),
                            SUITES["scale"])["engines_ran"]
        assert verdict is (size["num_gpus"] > ENGINE_MUST_RUN_GPUS)


def test_missing_field_fails_instead_of_raising():
    assert run_gates({}, SUITES["scale"]) == {
        name: False for name, _ in SUITES["scale"]
    }


def test_seal_stores_gates_and_their_conjunction():
    report = seal(committed("multitenant_serving"))
    assert report["ok"] is True
    report["jain_fairness"] = 0.0
    seal(report)
    assert report["ok"] is False
    assert report["gates"]["fairness_floor"] is False
    assert report["gates"]["interactive_beats_fifo"] is True
