"""CLI tests: python -m repro run|bench|compare|faults|perf|scale|serve|
scenario|churn|trace, and the fail-fast output probes every report command
shares."""

import importlib
import json

import pytest

from repro.cli import build_parser, main

RUN_ARGS = [
    "run",
    "--layers", "2",
    "--experts", "8",
    "--gpus", "4",
    "--steps", "4",
    "--tokens-per-gpu", "4096",
    "--d-model", "256",
    "--d-ffn", "1024",
    "--warmup", "1",
]


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_json(capsys):
    assert main(RUN_ARGS + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mean_step_time"] > 0
    assert payload["moe_layers"] == 2.0
    assert "mean_overlap_savings" in payload
    assert "distinct_final_placements" in payload


def test_run_human_readable(capsys):
    assert main(RUN_ARGS) == 0
    out = capsys.readouterr().out
    assert "step-time breakdown" in out
    assert "distinct per-layer placements" in out


def test_run_no_overlap_flag(capsys):
    assert main(RUN_ARGS + ["--no-overlap", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mean_a2a_hidden"] == 0.0


def test_bench_json(capsys):
    args = ["bench", "--experts", "8", "--gpus", "4", "--repeats", "3", "--json"]
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["vectorized_ms"] > 0
    assert payload["reference_ms"] > 0
    assert payload["speedup"] > 0


def test_compare_json(capsys):
    args = [
        "compare", "--gpus", "4", "--experts", "8", "--steps", "4", "--json",
    ]
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "FlexMoE" in payload
    assert payload["FlexMoE"]["mean_step_time"] > 0


def test_compare_unknown_model_errors(capsys):
    assert main(["compare", "--model", "no-such-model"]) == 2
    assert "error:" in capsys.readouterr().err


FAULTS_ARGS = [
    "faults",
    "--layers", "1",
    "--experts", "8",
    "--gpus", "4",
    "--steps", "16",
    "--tokens-per-gpu", "4096",
    "--fail-step", "4",
    "--recover-after", "5",
    "--stragglers", "1",
    "--straggler-step", "2",
]


def test_faults_human_readable(capsys):
    assert main(FAULTS_ARGS) == 0
    out = capsys.readouterr().out
    assert "events:" in out
    assert "fail" in out and "recover" in out and "slowdown" in out
    assert "FlexMoE" in out and "Static" in out


def test_faults_json(capsys):
    assert main(FAULTS_ARGS + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["flexmoe"]["final"] > 0
    assert payload["baseline"]["final"] > 0
    assert payload["flexmoe"]["rehomed"] == 1.0
    assert {e["kind"] for e in payload["events"]} == {
        "fail", "recover", "slowdown"
    }


def test_faults_smoke_passes(capsys):
    assert main(["faults", "--smoke", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["first_failure_step"] == 10


def test_perf_smoke_passes_and_writes_report(capsys, tmp_path):
    out = tmp_path / "BENCH_step_overhead.json"
    assert main(["perf", "--smoke", "--output", str(out), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["total_fallbacks"] == 0
    assert payload["planner"]["decisions_match"] is True
    assert payload["kernel"]["simulated_results_match"] is True
    written = json.loads(out.read_text())
    assert written["suite"] == "step_overhead"
    assert written["smoke"] is True


def test_perf_unwritable_output_fails_fast(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "report.json"
    assert main(["perf", "--smoke", "--output", str(target)]) == 2
    err = capsys.readouterr().err
    assert "error: cannot write report" in err


def test_perf_human_readable(capsys, tmp_path):
    out = tmp_path / "BENCH_step_overhead.json"
    assert main(["perf", "--smoke", "--output", str(out)]) == 0
    text = capsys.readouterr().out
    assert "planner" in text and "rounds/s" in text
    assert "decisions identical" in text
    assert "fallbacks to full recompute: 0" in text
    assert "perf: OK" in text


def test_churn_smoke_passes_and_writes_report(capsys, tmp_path):
    out = tmp_path / "BENCH_autoscale_churn.json"
    assert main(["churn", "--smoke", "--output", str(out), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["suite"] == "autoscale_churn"
    assert set(payload["rows"]) == {
        "spot", "outage", "heterogeneous", "multiday"
    }
    for row in payload["rows"].values():
        assert row["attainment_gain"] > 0
    assert payload["degradation"]["ok"] is True
    written = json.loads(out.read_text())
    assert written["smoke"] is True
    assert written["ok"] is True
    assert written["gates"]["spot.autoscaled_beats_fixed"] is True


def test_churn_human_readable(capsys, tmp_path):
    out = tmp_path / "BENCH_autoscale_churn.json"
    assert main(["churn", "--smoke", "--output", str(out)]) == 0
    text = capsys.readouterr().out
    assert "autoscale churn" in text
    assert "cost-weighted goodput" in text
    assert "degradation pair" in text
    assert "churn smoke: OK" in text


def test_churn_unwritable_output_fails_fast(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "report.json"
    assert main(["churn", "--smoke", "--output", str(target)]) == 2
    err = capsys.readouterr().err
    assert "error: cannot write report" in err


#: Every command that writes a suite report, and the suite function it runs.
REPORT_COMMANDS = [
    (["perf", "--smoke"], "repro.bench.perf", "perf_suite"),
    (["scale", "--smoke"], "repro.bench.scale", "scale_suite"),
    (["serve", "--smoke"], "repro.bench.serving", "serving_run"),
    (
        ["serve", "--multi-tenant", "--smoke"],
        "repro.bench.serving",
        "multitenant_run",
    ),
    (["scenario", "--smoke"], "repro.sim.composed", "composed_scenario_run"),
    (["churn", "--smoke"], "repro.bench.churn", "churn_bench_run"),
    (["trace", "--smoke"], "repro.sim.composed", "composed_scenario_run"),
]
IDS = [" ".join(argv) for argv, _, _ in REPORT_COMMANDS]

#: The report commands that also take ``--trace-out``.
TRACE_OUT_COMMANDS = [
    case for case in REPORT_COMMANDS
    if case[0][0] in {"serve", "scenario", "churn"}
]


def _refuse_to_run(monkeypatch, module: str, name: str) -> None:
    def suite(*args, **kwargs):
        raise RuntimeError("the suite ran")

    monkeypatch.setattr(importlib.import_module(module), name, suite)


@pytest.mark.parametrize("argv, module, name", REPORT_COMMANDS, ids=IDS)
def test_unwritable_output_fails_before_the_suite_runs(
    argv, module, name, monkeypatch, capsys, tmp_path
):
    _refuse_to_run(monkeypatch, module, name)
    target = tmp_path / "missing-dir" / "report.json"
    assert main(argv + ["--output", str(target)]) == 2
    assert "error: cannot write report" in capsys.readouterr().err


@pytest.mark.parametrize("argv, module, name", REPORT_COMMANDS, ids=IDS)
def test_failed_suite_leaves_no_empty_report(
    argv, module, name, monkeypatch, tmp_path
):
    _refuse_to_run(monkeypatch, module, name)
    target = tmp_path / "report.json"
    with pytest.raises(RuntimeError, match="the suite ran"):
        main(argv + ["--output", str(target)])
    assert not target.exists()


@pytest.mark.parametrize(
    "argv, module, name",
    TRACE_OUT_COMMANDS,
    ids=[" ".join(argv) for argv, _, _ in TRACE_OUT_COMMANDS],
)
def test_unwritable_trace_out_fails_before_the_suite_runs(
    argv, module, name, monkeypatch, capsys, tmp_path
):
    _refuse_to_run(monkeypatch, module, name)
    report = tmp_path / "report.json"
    trace = tmp_path / "missing-dir" / "trace.json"
    assert main(argv + ["--output", str(report), "--trace-out", str(trace)]) == 2
    assert "error: cannot write trace" in capsys.readouterr().err
    assert not report.exists()


def test_run_unwritable_trace_out_fails_before_the_run(
    monkeypatch, capsys, tmp_path
):
    def refuse(**kwargs):
        raise RuntimeError("the run ran")

    monkeypatch.setattr("repro.cli.pipeline_run", refuse)
    trace = tmp_path / "missing-dir" / "trace.json"
    assert main(RUN_ARGS + ["--trace-out", str(trace)]) == 2
    assert "error: cannot write trace" in capsys.readouterr().err


class _SuiteCalled(Exception):
    pass


def _capture_serving_run(monkeypatch, name: str) -> dict:
    """Patch ``repro.bench.serving.<name>`` to record its arguments and
    stop."""
    seen: dict = {}

    def capture(**kwargs):
        seen.update(kwargs)
        raise _SuiteCalled

    monkeypatch.setattr(
        importlib.import_module("repro.bench.serving"), name, capture
    )
    return seen


def test_multi_tenant_passes_its_scenario_flags_through(monkeypatch):
    seen = _capture_serving_run(monkeypatch, "multitenant_run")
    argv = [
        "serve", "--multi-tenant",
        "--layers", "1", "--experts", "8", "--gpus", "4",
        "--requests", "40", "--batch-tokens", "2048", "--load", "0.7",
        "--skew", "1.5", "--topics", "3", "--topic-drift", "0.2",
        "--seed", "5",
    ]
    with pytest.raises(_SuiteCalled):
        main(argv)
    assert seen == {
        "num_moe_layers": 1,
        "num_gpus": 4,
        "num_experts": 8,
        "num_requests": 40,
        "max_batch_tokens": 2048,
        "load": 0.7,
        "skew": 1.5,
        "num_topics": 3,
        "topic_drift": 0.2,
        "seed": 5,
    }


def test_multi_tenant_smoke_honours_seed(monkeypatch, tmp_path):
    seen = _capture_serving_run(monkeypatch, "multitenant_run")
    argv = [
        "serve", "--multi-tenant", "--smoke", "--gpus", "4", "--seed", "3",
        "--output", str(tmp_path / "report.json"),
    ]
    with pytest.raises(_SuiteCalled):
        main(argv)
    assert seen == {"num_requests": 200, "seed": 3}


def test_multi_tenant_reports_the_shape_it_ran(capsys):
    argv = [
        "serve", "--multi-tenant", "--gpus", "4", "--experts", "8",
        "--layers", "1", "--requests", "40", "--json",
    ]
    assert main(argv) == 0
    scenario = json.loads(capsys.readouterr().out)["scenario"]
    assert scenario["num_gpus"] == 4
    assert scenario["num_experts"] == 8
    assert scenario["num_moe_layers"] == 1


def test_multi_tenant_refuses_failures(monkeypatch, capsys):
    _refuse_to_run(monkeypatch, "repro.bench.serving", "multitenant_run")
    assert main(["serve", "--multi-tenant", "--failures", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_serve_smoke_pins_its_scenario(monkeypatch, tmp_path):
    """``serve --smoke`` runs the suite module's fixed scenario: shape and
    fault flags are ignored, ``--seed`` is honoured."""
    seen = _capture_serving_run(monkeypatch, "serving_run")
    argv = [
        "serve", "--smoke", "--gpus", "4", "--failures", "1", "--seed", "2",
        "--output", str(tmp_path / "report.json"),
    ]
    with pytest.raises(_SuiteCalled):
        main(argv)
    assert seen == {"num_requests": 250, "seed": 2}


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "--load", "0"],
        ["serve", "--batch-tokens", "0"],
        ["serve", "--mean-tokens", "0"],
        ["serve", "--failures", "1", "--batch-tokens", "0"],
        ["serve", "--multi-tenant", "--load", "0"],
        ["serve", "--multi-tenant", "--batch-tokens", "0"],
        ["serve", "--multi-tenant", "--requests", "0"],
    ],
    ids=" ".join,
)
def test_serve_rejects_degenerate_scenarios(argv, capsys):
    """A zero load, batch budget, request length or request count is an
    input error (exit 2), never a traceback or a silently resized run."""
    small = ["--layers", "1", "--experts", "8", "--gpus", "4", "--json"]
    assert main(argv + small) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""
