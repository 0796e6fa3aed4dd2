"""CLI smoke tests: python -m repro run|bench|compare|faults|perf|churn."""

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
]
IDS = [" ".join(argv) for argv, _, _ in REPORT_COMMANDS]


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
