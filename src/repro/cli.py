"""Command-line entry point: ``python -m repro``.

Eleven subcommands expose the simulation engine without writing any code:

* ``run``     — multi-layer pipelined FlexMoE run with an overlap-aware
  step-time breakdown and per-layer placement divergence;
* ``bench``   — the routing microbenchmark (vectorized vs reference
  router), plus ``--smoke`` for the fast end-to-end suite CI runs;
* ``compare`` — the paper's system line-up (DeepSpeed-style expert
  parallelism / FasterMoE / FlexMoE) on one workload;
* ``faults``  — the elastic-cluster scenario engine: seeded device
  failures, recoveries and stragglers injected into identical FlexMoE
  and static runs (see ``docs/elasticity.md``);
* ``perf``    — the scheduling-overhead harness: planner rounds/sec and
  end-to-end simulated steps/sec of the delta-cost search vs the
  full-recompute reference evaluator, written to
  ``BENCH_step_overhead.json`` (see ``docs/performance.md``);
* ``scale``   — the datacenter-scale sweep (64 to 4096 devices):
  hierarchical vs flat placement search, written to ``BENCH_scale.json``;
* ``serve``   — the online serving harness: an SLO-aware request stream
  (bursty/diurnal arrival, drifting topics) served by the dynamic
  FlexMoE server vs the frozen ``StaticServing`` baseline, with
  p50/p95/p99 latency and goodput written to
  ``BENCH_serving_latency.json``; ``serve --multi-tenant`` runs the
  multi-tenant comparison instead (SLO classes, priority admission,
  preemption vs a global FIFO, ``BENCH_multitenant.json``) — see
  ``docs/serving.md``;
* ``scenario`` — the composed discrete-event scenario on the unified
  simulation kernel: serving under diurnal load WHILE devices fail and
  recover at wall-clock times WHILE a metered migration budget competes
  for bandwidth, written to ``BENCH_composed_scenario.json`` (see
  ``docs/simulation.md``);
* ``churn``   — the closed SLO loop under capacity loss: paired
  autoscaled-vs-fixed runs through spot revocation waves (plus outage,
  heterogeneous-standby and multi-day variants) and the multi-tenant
  graceful-degradation pair, written to ``BENCH_autoscale_churn.json``
  (see ``docs/autoscaling.md``);
* ``trace``   — the composed scenario under a full telemetry session:
  kernel event spans, step-phase spans, serving-batch spans, the
  control-plane decision timeline and a metrics snapshot, exported as
  one Chrome trace-event JSON artifact loadable in Perfetto
  (see ``docs/observability.md``).
* ``check``   — re-evaluates the named gates of ``BENCH_*.json`` reports
  (:mod:`repro.bench.gates`) from the files alone and prints every
  failed gate by name; CI runs it after each benchmark suite.

``run``, ``serve``, ``scenario`` and ``churn`` additionally accept
``--trace-out PATH`` (write the same Chrome trace artifact for that run)
and ``--telemetry`` (print the metrics-registry snapshot afterwards).

Every benchmark in ``benchmarks/`` and example in ``examples/`` builds on
the same harness functions these commands call, so the CLI is the quickest
way to reach any scenario; see ``docs/paper_mapping.md`` for which figure
each maps to.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Callable, Iterator, Sequence

from repro.bench.harness import (
    SMOKE,
    faults_run,
    figure5_comparison,
    pipeline_run,
    quick_comparison,
    router_microbenchmark,
)
from repro.config import FaultConfig
from repro.exceptions import ReproError
from repro.model.zoo import MODEL_ZOO


def _add_telemetry_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write a Chrome trace-event JSON artifact for this run "
        "(kernel spans, decision timeline, metrics snapshot; open in "
        "Perfetto or chrome://tracing, see docs/observability.md)",
    )
    p.add_argument(
        "--telemetry",
        action="store_true",
        help="print the metrics-registry snapshot after the run",
    )


@contextmanager
def _telemetry_scope(
    args: argparse.Namespace, force: bool = False
) -> Iterator[object]:
    """An active telemetry session when ``--trace-out``/``--telemetry``
    ask for one (or ``force``), else ``None`` -- so default runs stay on
    the telemetry-disabled fast path."""
    wanted = force or bool(
        getattr(args, "trace_out", None) or getattr(args, "telemetry", False)
    )
    if not wanted:
        yield None
        return
    from repro import telemetry

    with telemetry.session(reuse=False) as tel:
        yield tel


def _emit_telemetry(args: argparse.Namespace, tel, quiet: bool = False) -> int:
    """Write the trace artifact / print the snapshot a command's
    telemetry flags requested. Returns non-zero only on write failure."""
    if tel is None:
        return 0
    if getattr(args, "trace_out", None):
        try:
            path = tel.write(args.trace_out)
        except OSError as exc:
            print(
                f"error: cannot write trace to {args.trace_out}: {exc}",
                file=sys.stderr,
            )
            return 2
        if not quiet:
            events = len(tel.tracer.events) if tel.tracer is not None else 0
            print(
                f"trace written to {path} ({events} trace events, "
                f"{len(tel.timeline)} timeline entries)"
            )
    if getattr(args, "telemetry", False) and not quiet:
        print(tel.registry.to_json())
    return 0


class _ReportPathError(ReproError):
    """``--output`` cannot take the report."""

    def __init__(self, output: str, exc: OSError) -> None:
        super().__init__(f"cannot write report to {output}: {exc}")


def _run_to_report(
    output: str | None, build: Callable[[], dict]
) -> tuple[dict, Path | None]:
    """Run ``build`` and write its report to ``output`` (``None``: no file).

    The path is probed before the run, so an unwritable ``--output``
    fails in milliseconds instead of after the whole simulation, and the
    empty probe file never outlives a failed run.
    """
    if output is None:
        return build(), None
    from repro.bench.perf import write_report

    path = Path(output)
    probe = not path.exists()
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise _ReportPathError(output, exc) from exc
    try:
        report = build()
    except BaseException:
        if probe:
            with suppress(OSError):
                if path.stat().st_size == 0:
                    path.unlink()
        raise
    try:
        write_report(report, path)
    except OSError as exc:
        raise _ReportPathError(output, exc) from exc
    return report, path


def _verdict(label: str | None, report: dict, enforce: bool = True) -> int:
    """Exit code of a sealed report: 1 on a failed gate when ``enforce``.

    With a ``label``, prints ``label: OK`` or ``label: FAILED`` followed
    by the names of the failed gates.
    """
    failed = [name for name, held in report["gates"].items() if not held]
    if label is not None:
        print(f"{label}:", f"FAILED {', '.join(failed)}" if failed else "OK")
    return 1 if failed and enforce else 0


def _add_run_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "run",
        help="run the multi-layer pipelined FlexMoE engine",
        description=(
            "Simulate FlexMoE over every MoE layer of a transformer: "
            "per-layer placements and adjustment streams, with All-to-All "
            "overlapped against the dense blocks."
        ),
    )
    p.add_argument("--layers", type=int, default=4, help="MoE layers (default 4)")
    p.add_argument("--experts", type=int, default=32, help="experts per layer")
    p.add_argument("--gpus", type=int, default=16, help="cluster size")
    p.add_argument("--steps", type=int, default=30, help="trace length")
    p.add_argument("--tokens-per-gpu", type=int, default=32_768)
    p.add_argument("--d-model", type=int, default=2048)
    p.add_argument("--d-ffn", type=int, default=8192)
    p.add_argument("--warmup", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--no-overlap",
        action="store_true",
        help="disable compute/communication overlap (ablation)",
    )
    p.add_argument(
        "--no-dense",
        action="store_true",
        help="skip dense-block modelling (bare stacked MoE layers)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    _add_telemetry_flags(p)


def _add_bench_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "bench",
        help="routing microbenchmark / CI smoke suite",
        description=(
            "Default: time the vectorized router against the seed reference "
            "implementation. --smoke additionally runs a fast end-to-end "
            "pipeline and comparison pass (what CI runs)."
        ),
    )
    p.add_argument("--experts", type=int, default=64)
    p.add_argument("--gpus", type=int, default=16)
    p.add_argument("--repeats", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--smoke",
        action="store_true",
        help="fast end-to-end suite: router + pipeline + comparison",
    )
    p.add_argument("--json", action="store_true")


def _add_compare_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "compare",
        help="compare DeepSpeed / FasterMoE / FlexMoE on one workload",
        description=(
            "Run the paper's system line-up on an identical trace and "
            "substrate (Figure 5's methodology)."
        ),
    )
    p.add_argument(
        "--model",
        default=None,
        metavar="NAME",
        help=f"model-zoo config (one of: {', '.join(sorted(MODEL_ZOO))}); "
        "omit for a small custom model",
    )
    p.add_argument("--experts", type=int, default=16, help="custom-model experts")
    p.add_argument("--gpus", type=int, default=8)
    p.add_argument("--steps", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")


def _add_faults_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "faults",
        help="failure/straggler scenarios on an elastic cluster",
        description=(
            "Inject a seeded elasticity schedule (device failures, "
            "recoveries, stragglers, optional static heterogeneity) into "
            "two identical runs -- FlexMoE with dynamic placement vs a "
            "static baseline -- and report how each absorbs the events."
        ),
    )
    p.add_argument("--layers", type=int, default=2, help="MoE layers (default 2)")
    p.add_argument("--experts", type=int, default=16, help="experts per layer")
    p.add_argument("--gpus", type=int, default=8, help="cluster size")
    p.add_argument("--steps", type=int, default=50, help="trace length")
    p.add_argument("--tokens-per-gpu", type=int, default=16_384)
    p.add_argument("--warmup", type=int, default=5)
    p.add_argument(
        "--failures", type=int, default=1, help="devices that fail (default 1)"
    )
    p.add_argument(
        "--fail-step", type=int, default=None,
        help="step of the first failure (default: steps // 4)",
    )
    p.add_argument(
        "--recover-after", type=int, default=None,
        help="steps until a failed device rejoins (default: steps // 4; "
        "0 = never)",
    )
    p.add_argument(
        "--stragglers", type=int, default=1,
        help="devices that slow down (default 1)",
    )
    p.add_argument(
        "--straggler-factor", type=float, default=0.5,
        help="straggler compute multiplier (default 0.5 = half speed)",
    )
    p.add_argument(
        "--straggler-step", type=int, default=None,
        help="step at which stragglers slow down (default: steps // 10)",
    )
    p.add_argument(
        "--slow-gpus", type=int, default=0,
        help="static heterogeneity: N permanently slow devices",
    )
    p.add_argument(
        "--slow-factor", type=float, default=0.6,
        help="compute multiplier of the --slow-gpus devices",
    )
    p.add_argument(
        "--spike-period", type=int, default=None,
        help="workload spikes: one expert surges every ~N steps",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--smoke",
        action="store_true",
        help="small fixed scenario + recovery assertions (what CI runs)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")


def _add_perf_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "perf",
        help="scheduling-overhead benchmark (delta vs reference evaluator)",
        description=(
            "Benchmark the placement search hot path: planner rounds/sec "
            "and end-to-end simulated steps/sec with the incremental "
            "delta-cost evaluator vs the full-recompute reference path, "
            "asserting identical scheduling decisions. Writes the "
            "machine-readable report to BENCH_step_overhead.json."
        ),
    )
    p.add_argument(
        "--smoke",
        action="store_true",
        help="CI-scale scenarios; fails if the delta path ever falls back "
        "to full recomputation or decisions diverge",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--output",
        default="BENCH_step_overhead.json",
        metavar="PATH",
        help="where to write the JSON report (default: "
        "BENCH_step_overhead.json in the current directory)",
    )
    p.add_argument("--json", action="store_true", help="print the report too")


def _add_scale_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "scale",
        help="datacenter-scale sweep: 64 to 4096 devices",
        description=(
            "Sweep cluster size from 64 to 4096 devices (experts and "
            "layers scaled alongside) and record planner rounds/sec of "
            "the hierarchical two-level placement search vs the flat "
            "full-cluster sweep, engine steps/sec where the ground-truth "
            "executor is feasible, and kernel events/sec with fan-out "
            "scaled to the layer count. Writes the machine-readable "
            "report to BENCH_scale.json."
        ),
    )
    p.add_argument(
        "--smoke",
        action="store_true",
        help="64- and 1024-device columns only (what CI runs); fails "
        "unless every named gate holds",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--output",
        default="BENCH_scale.json",
        metavar="PATH",
        help="where to write the JSON report (default: BENCH_scale.json "
        "in the current directory)",
    )
    p.add_argument("--json", action="store_true", help="print the report too")


def _add_serve_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "serve",
        help="online serving: SLO-aware request stream, FlexMoE vs Static",
        description=(
            "Serve an identical seeded request stream (bursty or diurnal "
            "arrival, drifting topic mix shifting expert popularity) with "
            "the dynamic FlexMoE server and the frozen StaticServing "
            "baseline, and report p50/p95/p99 latency and goodput under "
            "the SLO. The report lands in BENCH_serving_latency.json."
        ),
    )
    p.add_argument("--layers", type=int, default=2, help="MoE layers (default 2)")
    p.add_argument("--experts", type=int, default=16, help="experts per layer")
    p.add_argument("--gpus", type=int, default=8, help="cluster size")
    p.add_argument(
        "--requests", type=int, default=400, help="stream length (default 400)"
    )
    p.add_argument(
        "--mean-tokens", type=int, default=512,
        help="median request length in tokens",
    )
    p.add_argument(
        "--batch-tokens", type=int, default=4096,
        help="micro-batch token budget",
    )
    p.add_argument(
        "--arrival", choices=("poisson", "bursty", "diurnal"),
        default="bursty", help="arrival process (default bursty)",
    )
    p.add_argument(
        "--load", type=float, default=0.9,
        help="offered load vs the balanced token capacity (default 0.9)",
    )
    p.add_argument(
        "--skew", type=float, default=2.0,
        help="Zipf exponent of each topic's expert profile",
    )
    p.add_argument(
        "--topics", type=int, default=4, help="topic vocabulary size"
    )
    p.add_argument(
        "--topic-drift", type=float, default=0.4,
        help="per-request drift of the topic mix",
    )
    p.add_argument(
        "--slo-batches", type=float, default=8.0,
        help="per-request SLO in balanced-batch durations",
    )
    p.add_argument(
        "--failures", type=int, default=0,
        help="devices failing mid-stream (elasticity; default 0)",
    )
    p.add_argument(
        "--fail-batch", type=int, default=None,
        help="batch index of the first failure (default: a third in)",
    )
    p.add_argument(
        "--recover-after", type=int, default=None,
        help="batches until a failed device rejoins (0 = never)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--multi-tenant",
        action="store_true",
        help="multi-tenant comparison: an interactive tenant plus two "
        "batch tenants; FlexMoE placement with priority admission and "
        "preemption vs static placement with a global FIFO "
        "(BENCH_multitenant.json)",
    )
    p.add_argument(
        "--smoke",
        action="store_true",
        help="fixed CI scenario; fails on any SLO-comparison regression",
    )
    p.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="where to write the JSON report (default with --smoke: "
        "BENCH_serving_latency.json, or BENCH_multitenant.json with "
        "--multi-tenant, in the current directory; custom runs write "
        "no report unless given a path)",
    )
    p.add_argument("--json", action="store_true", help="print the report too")
    _add_telemetry_flags(p)


def _add_scenario_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "scenario",
        help="composed scenario on the unified simulation kernel",
        description=(
            "Run a declarative composed scenario on the shared "
            "discrete-event kernel: an SLO-aware diurnal serving stream, "
            "wall-clock-timed device failures and recoveries, and a "
            "metered background migration budget all advance one clock. "
            "None of the retired bespoke loops could express this "
            "combination; see docs/simulation.md."
        ),
    )
    p.add_argument("--layers", type=int, default=2, help="MoE layers (default 2)")
    p.add_argument("--experts", type=int, default=16, help="experts per layer")
    p.add_argument("--gpus", type=int, default=8, help="cluster size")
    p.add_argument(
        "--requests", type=int, default=400, help="stream length (default 400)"
    )
    p.add_argument(
        "--load", type=float, default=0.85,
        help="offered load vs the balanced token capacity (default 0.85)",
    )
    p.add_argument(
        "--failures", type=int, default=1,
        help="devices failing (and later recovering) mid-stream; above 1, "
        "a budget-starved re-home can legitimately abort the run with "
        "'model states are gone'",
    )
    p.add_argument(
        "--budget-bandwidth", type=float, default=0.5,
        help="fraction of link time each migration-budget grant hands "
        "the adjustment streams (default 0.5)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--smoke",
        action="store_true",
        help="CI-scale scenario (shared smoke-duration policy); fails "
        "unless every named gate holds",
    )
    p.add_argument(
        "--output",
        default="BENCH_composed_scenario.json",
        metavar="PATH",
        help="where to write the JSON report (default: "
        "BENCH_composed_scenario.json in the current directory)",
    )
    p.add_argument("--json", action="store_true", help="print the report too")
    _add_telemetry_flags(p)


def _add_churn_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "churn",
        help="autoscaler vs fixed pool under spot churn + degradation pair",
        description=(
            "Close the SLO loop under capacity loss: paired "
            "autoscaled-vs-fixed serving runs through correlated spot "
            "revocation waves (plus outage, heterogeneous-standby and "
            "multi-day variants), and a multi-tenant graceful-degradation "
            "pair that sheds lowest-priority work first when devices "
            "vanish. See docs/autoscaling.md."
        ),
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--smoke",
        action="store_true",
        help="CI-scale matrix (shared smoke-duration policy); fails "
        "unless every named gate holds",
    )
    p.add_argument(
        "--output",
        default="BENCH_autoscale_churn.json",
        metavar="PATH",
        help="where to write the JSON report (default: "
        "BENCH_autoscale_churn.json in the current directory)",
    )
    p.add_argument("--json", action="store_true", help="print the report too")
    _add_telemetry_flags(p)


def _add_trace_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "trace",
        help="composed scenario under a full telemetry session",
        description=(
            "Run the composed kernel scenario (serving + timed outages + "
            "migration budget) with the telemetry layer fully on, and "
            "export one Chrome trace-event JSON artifact: kernel event "
            "spans per priority lane, serving-batch spans, control-plane "
            "decision instants, plus the decision timeline and metrics "
            "snapshot in metadata. Open it in Perfetto (ui.perfetto.dev) "
            "or chrome://tracing; see docs/observability.md."
        ),
    )
    p.add_argument("--layers", type=int, default=2, help="MoE layers (default 2)")
    p.add_argument("--experts", type=int, default=16, help="experts per layer")
    p.add_argument("--gpus", type=int, default=8, help="cluster size")
    p.add_argument(
        "--requests", type=int, default=400, help="stream length (default 400)"
    )
    p.add_argument(
        "--load", type=float, default=0.85,
        help="offered load vs the balanced token capacity (default 0.85)",
    )
    p.add_argument(
        "--failures", type=int, default=1,
        help="devices failing (and later recovering) mid-stream",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--smoke",
        action="store_true",
        help="CI-scale scenario; fails unless every named gate holds",
    )
    p.add_argument(
        "--output",
        default="trace.json",
        metavar="PATH",
        help="where to write the trace artifact (default: trace.json in "
        "the current directory)",
    )
    p.add_argument("--json", action="store_true", help="print a summary too")


def _add_check_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "check",
        help="re-evaluate the named gates of BENCH_*.json reports",
        description=(
            "Re-evaluate each report's gates from the file alone (the "
            "table in repro.bench.gates, chosen by the report's suite) "
            "and print every failed gate by name. Exits 0 when every "
            "gate holds, 1 when any gate fails, 2 for an unreadable "
            "file or an unknown suite."
        ),
    )
    p.add_argument("files", nargs="+", metavar="FILE")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="FlexMoE reproduction: dynamic device placement for "
        "sparse MoE training (Nie et al., SIGMOD 2023).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run_parser(sub)
    _add_bench_parser(sub)
    _add_compare_parser(sub)
    _add_faults_parser(sub)
    _add_perf_parser(sub)
    _add_scale_parser(sub)
    _add_serve_parser(sub)
    _add_scenario_parser(sub)
    _add_churn_parser(sub)
    _add_trace_parser(sub)
    _add_check_parser(sub)
    return parser


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------
def _cmd_run(args: argparse.Namespace) -> int:
    with _telemetry_scope(args) as tel:
        run = pipeline_run(
            num_moe_layers=args.layers,
            num_gpus=args.gpus,
            num_experts=args.experts,
            num_steps=args.steps,
            tokens_per_gpu=args.tokens_per_gpu,
            d_model=args.d_model,
            d_ffn=args.d_ffn,
            warmup=args.warmup,
            seed=args.seed,
            overlap_efficiency=0.0 if args.no_overlap else 1.0,
            model_dense_compute=not args.no_dense,
        )
    summary = run.summary()
    emit_rc = _emit_telemetry(args, tel, quiet=args.json)
    if emit_rc:
        return emit_rc
    if args.json:
        payload = dict(summary)
        payload["distinct_final_placements"] = run.distinct_final_placements
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(
        f"{run.engine}: {args.layers} MoE layers x {args.experts} experts "
        f"on {args.gpus} GPUs, {args.steps} steps"
    )
    print(
        f"  mean step time     {1e3 * summary['mean_step_time']:9.3f} ms "
        f"(p95 {1e3 * summary['p95_step_time']:.3f} ms)"
    )
    print("  step-time breakdown (mean seconds per phase):")
    for phase, value in run.phase_breakdown().items():
        if phase == "step_time":
            continue
        print(f"    {phase:<20} {1e3 * value:9.3f} ms")
    print(
        f"  A2A hidden by overlap  {100 * summary['mean_overlap_savings']:6.1f} %"
    )
    print(
        f"  distinct per-layer placements at end of run: "
        f"{run.distinct_final_placements} / {run.num_moe_layers}"
    )
    print(
        f"  placement actions committed: {int(summary['scheduling_actions'])}"
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    results: dict[str, object] = {}
    if args.smoke:
        # Keep every stage small: CI runs this on every push.
        micro = router_microbenchmark(
            num_experts=min(args.experts, 32),
            num_gpus=min(args.gpus, 8),
            repeats=min(args.repeats, 10),
            seed=args.seed,
        )
        results["router"] = micro
        run = pipeline_run(
            num_moe_layers=2,
            num_gpus=8,
            num_experts=16,
            num_steps=10,
            warmup=2,
            seed=args.seed,
        )
        results["pipeline"] = {
            "mean_step_time": run.mean_step_time,
            "distinct_final_placements": run.distinct_final_placements,
            "overlap_savings": run.summary()["mean_overlap_savings"],
        }
        cmp = quick_comparison(
            num_gpus=8, num_experts=16, num_steps=10, seed=args.seed
        )
        results["comparison"] = {
            name: cmp[name].mean_step_time for name in cmp.systems
        }
        ok = (
            micro["speedup"] > 1.0
            and run.mean_step_time > 0
            and "FlexMoE" in cmp.systems
        )
        results["ok"] = ok
        if args.json:
            print(json.dumps(results, indent=2, sort_keys=True))
        else:
            print(
                f"router     vectorized {micro['vectorized_ms']:.3f} ms vs "
                f"reference {micro['reference_ms']:.3f} ms "
                f"({micro['speedup']:.1f}x)"
            )
            print(
                f"pipeline   mean step {1e3 * run.mean_step_time:.3f} ms, "
                f"{run.distinct_final_placements} distinct layer placements"
            )
            print(
                "comparison "
                + "  ".join(
                    f"{name}={1e3 * t:.3f}ms"
                    for name, t in results["comparison"].items()
                )
            )
            print("smoke:", "OK" if ok else "FAILED")
        return 0 if ok else 1

    micro = router_microbenchmark(
        num_experts=args.experts,
        num_gpus=args.gpus,
        repeats=args.repeats,
        seed=args.seed,
    )
    if args.json:
        print(json.dumps(micro, indent=2, sort_keys=True))
    else:
        print(
            f"routing microbenchmark ({args.experts} experts, "
            f"{args.gpus} GPUs, {args.repeats} repeats):"
        )
        print(f"  vectorized  {micro['vectorized_ms']:9.3f} ms/route")
        print(f"  reference   {micro['reference_ms']:9.3f} ms/route")
        print(f"  speedup     {micro['speedup']:9.1f}x")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.model is not None:
        scale = dataclasses.replace(
            SMOKE,
            num_steps=args.steps,
            warmup=min(SMOKE.warmup, max(0, args.steps // 4)),
        )
        result = figure5_comparison(
            args.model, args.gpus, scale=scale, seed=args.seed
        )
    else:
        result = quick_comparison(
            num_gpus=args.gpus,
            num_experts=args.experts,
            num_steps=args.steps,
            seed=args.seed,
        )
    if args.json:
        payload = {name: result[name].summary() for name in result.systems}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(result.summary())
    baseline = result.systems[0]
    for name in result.systems[1:]:
        print(f"{name} speedup over {baseline}: {result.speedup(name, baseline):.2f}x")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    if args.smoke:
        # Fixed small scenario CI asserts on: one failure that recovers,
        # one persistent straggler.
        args.layers, args.experts, args.gpus = 2, 16, 8
        args.steps, args.tokens_per_gpu, args.warmup = 40, 16_384, 5
        args.failures, args.fail_step, args.recover_after = 1, 10, 10
        args.stragglers, args.straggler_factor, args.straggler_step = 1, 0.5, 4
        args.slow_gpus, args.spike_period = 0, None

    fail_step = args.fail_step if args.fail_step is not None else args.steps // 4
    recover = (
        args.recover_after if args.recover_after is not None else args.steps // 4
    )
    faults = FaultConfig(
        num_failures=args.failures,
        failure_step=fail_step,
        recovery_steps=recover if recover > 0 else None,
        num_stragglers=args.stragglers,
        straggler_factor=args.straggler_factor,
        straggler_step=(
            args.straggler_step
            if args.straggler_step is not None
            else max(2, args.steps // 10)
        ),
        seed=args.seed,
    )
    result = faults_run(
        num_moe_layers=args.layers,
        num_gpus=args.gpus,
        num_experts=args.experts,
        num_steps=args.steps,
        tokens_per_gpu=args.tokens_per_gpu,
        warmup=args.warmup,
        faults=faults,
        slow_gpus=args.slow_gpus,
        slow_factor=args.slow_factor,
        spike_period=args.spike_period,
        seed=args.seed,
    )
    summary = result.summary()
    ok = bool(summary["ok"]) or not args.smoke
    if args.json:
        payload = dict(summary)
        payload["events"] = [
            {"step": ev.step, "kind": ev.kind, "gpu": ev.gpu, "factor": ev.factor}
            for ev in result.schedule.events
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if ok else 1

    print(
        f"elastic scenario: {args.layers} MoE layers x {args.experts} experts "
        f"on {args.gpus} GPUs, {args.steps} steps, seed {args.seed}"
    )
    print("  events:")
    for ev in result.schedule.events:
        extra = f" (x{ev.factor})" if ev.kind == "slowdown" else ""
        print(f"    step {ev.step:>4}  {ev.kind:<9} gpu {ev.gpu}{extra}")
    def _ms(value: float | None) -> str:
        return f"{1e3 * value:>8.3f}ms" if value is not None else f"{'-':>10}"

    print(f"  {'system':<10} {'pre-fail':>10} {'peak':>10} {'final':>10}  rehomed")
    for name, phases in (
        ("FlexMoE", summary["flexmoe"]),
        ("Static", summary["baseline"]),
    ):
        print(
            f"  {name:<10} {_ms(phases.get('pre_failure'))} "
            f"{_ms(phases.get('disruption_peak'))} {_ms(phases['final'])}  "
            f"{'yes' if phases['rehomed'] else 'NO'}"
        )
    print(
        f"  FlexMoE placement actions committed: "
        f"{int(summary['flexmoe_actions'])}"
    )
    print(f"  final speedup over Static: {summary['final_speedup']:.2f}x")
    if args.smoke:
        print("faults smoke:", "OK" if ok else "FAILED")
    return 0 if ok else 1


def _cmd_perf(args: argparse.Namespace) -> int:
    from repro.bench.perf import perf_suite

    report, path = _run_to_report(
        args.output, lambda: perf_suite(smoke=args.smoke, seed=args.seed)
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return _verdict(None, report)

    planner = report["planner"]
    print(
        f"planner   delta {planner['delta_rounds_per_sec']:8.1f} rounds/s vs "
        f"reference {planner['reference_rounds_per_sec']:8.1f} rounds/s "
        f"({planner['speedup']:.1f}x), decisions "
        f"{'identical' if planner['decisions_match'] else 'DIVERGED'}"
    )
    allocation = planner["allocation"]
    print(
        f"alloc     tracemalloc peak {allocation['tracemalloc_peak_kb']:8.0f} "
        f"KiB  retained {allocation['live_blocks_per_step']:7.0f} blocks/step  "
        f"peak RSS {allocation['peak_rss_kb'] / 1024.0:7.0f} MiB"
    )
    for name in ("pipeline", "faults"):
        section = report[name]
        print(
            f"{name:<9} delta {section['delta_steps_per_sec']:8.1f} steps/s "
            f"vs reference {section['reference_steps_per_sec']:8.1f} steps/s "
            f"({section['speedup']:.1f}x), simulation "
            f"{'identical' if section['simulated_results_match'] else 'DIVERGED'}"
        )
    kernel = report["kernel"]
    print(
        f"kernel    event-kernel {kernel['kernel_steps_per_sec']:8.1f} steps/s "
        f"vs legacy loop {kernel['legacy_steps_per_sec']:8.1f} steps/s "
        f"({kernel['overhead_pct']:+.2f}% overhead, tolerance "
        f"{kernel['tolerance_pct']:.0f}%), simulation "
        f"{'identical' if kernel['simulated_results_match'] else 'DIVERGED'}"
    )
    print(
        f"telemetry enabled {kernel['enabled_steps_per_sec']:8.1f} steps/s "
        f"({kernel['enabled_overhead_pct']:+.2f}% vs legacy loop, "
        f"{int(kernel['enabled_trace_events'])} trace events), simulation "
        f"{'identical' if kernel['telemetry_results_match'] else 'DIVERGED'}"
    )
    serving_events = report["serving_events"]
    print(
        f"serving   events {serving_events['events_per_sec']:8.0f} events/s "
        f"(floor {serving_events['events_per_sec_floor']:.0f})"
    )
    kernel_events = report["kernel_events"]
    print(
        f"drain     events {kernel_events['events_per_sec']:8.0f} events/s "
        f"(floor {kernel_events['events_per_sec_floor']:.0f})"
    )
    # Memo accounting straight from the telemetry snapshot -- the report
    # carries it in registry schema (see docs/observability.md).
    metrics = report["telemetry"]["metrics"]
    counters = metrics["counters"]
    gauges = metrics["gauges"]
    print(
        f"memo      entries {int(gauges['memo.entries'])}  "
        f"hit rate {gauges['memo.hit_rate']:.4f}"
    )
    for key, hits in sorted(counters.items()):
        if not key.startswith("memo.hits{"):
            continue
        phase = key[len("memo.hits{phase="):-1]
        misses = counters.get(f"memo.misses{{phase={phase}}}", 0.0)
        total = hits + misses
        print(
            f"  phase {phase:<10} hits {int(hits)}  "
            f"misses {int(misses)}  "
            f"hit rate {hits / total if total else 0.0:.4f}"
        )
    print(
        f"delta fallbacks to full recompute: {int(report['total_fallbacks'])}"
    )
    print(f"report written to {path}")
    return _verdict("perf", report)


def _cmd_scale(args: argparse.Namespace) -> int:
    from repro.bench.scale import scale_suite

    report, path = _run_to_report(
        args.output, lambda: scale_suite(smoke=args.smoke, seed=args.seed)
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return _verdict(None, report)

    for entry in report["sizes"]:
        planner = entry["planner"]
        engine = entry["engine"]
        events = entry["kernel_events"]
        if "skipped" in engine:
            engine_col = "engine --------- (over memory budget)"
        else:
            engine_col = f"engine {engine['steps_per_sec']:7.2f} steps/s"
        print(
            f"{entry['num_gpus']:>5} GPUs x {entry['num_experts']:>3}E x "
            f"{entry['num_moe_layers']:>2}L  "
            f"planner hier {planner['hierarchical_rounds_per_sec']:8.2f} "
            f"vs flat {planner['flat_rounds_per_sec']:8.2f} rounds/s "
            f"({planner['speedup']:.2f}x, "
            f"{'identical' if planner['decisions_match'] else 'quality ' + format(planner['quality_ratio'], '.4f')})  "
            f"{engine_col}  "
            f"kernel {events['events_per_sec']:9.0f} events/s"
        )
    hier_wins = report["gates"]["hierarchical_wins_at_scale"]
    print(
        f"hierarchical wins at >= {report['hier_must_win_gpus']} GPUs: "
        f"{'yes' if hier_wins else 'NO'}; "
        f"delta fallbacks: {int(report['total_fallbacks'])}"
    )
    print(f"report written to {path}")
    return _verdict("scale", report)


def _cmd_serve_multitenant(args: argparse.Namespace) -> int:
    from repro.bench.serving import (
        MULTITENANT_REPORT_FILENAME,
        multitenant_run,
    )

    if args.output is None and args.smoke:
        args.output = MULTITENANT_REPORT_FILENAME
    num_requests = 200 if args.smoke else args.requests
    seed = 0 if args.smoke else args.seed
    # Smoke pins the CI scenario: 2 layers x 16 experts on 8 GPUs, one
    # interactive tenant against two batch tenants near saturation.
    with _telemetry_scope(args) as tel:
        summary, path = _run_to_report(
            args.output,
            lambda: multitenant_run(
                num_requests=num_requests, seed=seed
            ).summary(smoke=args.smoke),
        )
    emit_rc = _emit_telemetry(args, tel, quiet=args.json)
    if emit_rc:
        return emit_rc
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return _verdict(None, summary, enforce=args.smoke)

    scenario = summary["scenario"]
    print(
        f"multi-tenant serving: {scenario['num_moe_layers']} MoE layers x "
        f"{scenario['num_experts']} experts on {scenario['num_gpus']} GPUs, "
        f"{scenario['num_requests']} requests across "
        f"{len(summary['tenants'])} tenants (load {scenario['load']:.2f}, "
        f"{scenario['rate_rps']:.0f} req/s calibrated)"
    )
    for row in summary["tenants"]:
        print(
            f"  tenant {row['name']:<8} class={row['class']:<11} "
            f"priority={row['priority']:>2} weight={row['weight']:g} "
            f"requests={row['num_requests']}"
        )
    print(
        f"  {'server':<22} {'class':<11} {'SLO':>9} {'SLO-att':>8} "
        f"{'served':>7} {'rejected':>8}"
    )
    for name, key in (
        ("FlexMoE+priority", "flexmoe"),
        ("Static+FIFO", "fifo"),
    ):
        for cls_name, s in sorted(summary[key]["per_class"].items()):
            print(
                f"  {name:<22} {cls_name:<11} "
                f"{1e3 * s['slo_latency_s']:>7.3f}ms "
                f"{s['slo_attainment']:>8.3f} "
                f"{int(s['requests_served']):>7} "
                f"{int(s['requests_rejected']):>8}"
            )
    print(
        f"  interactive attainment: FlexMoE+priority "
        f"{summary['interactive_attainment']['flexmoe']:.3f} vs Static+FIFO "
        f"{summary['interactive_attainment']['fifo']:.3f} "
        f"(gain {summary['attainment_gain']:+.3f})"
    )
    print(
        f"  Jain fairness (FlexMoE+priority): "
        f"{summary['jain_fairness']:.3f} (floor "
        f"{summary['fairness_floor']:.2f}), preemptions "
        f"{int(summary['flexmoe']['preemptions'])}"
    )
    if path is not None:
        print(f"  report written to {path}")
    return _verdict(
        "serve multi-tenant smoke" if args.smoke else None,
        summary,
        enforce=args.smoke,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.bench.serving import serving_run

    if args.multi_tenant:
        return _cmd_serve_multitenant(args)
    if args.smoke:
        if args.output is None:
            args.output = "BENCH_serving_latency.json"
        # Fixed scenario CI gates on: skewed bursty stream near
        # saturation, no faults. Must show dynamic placement strictly
        # beating StaticServing on p99 AND goodput.
        args.layers, args.experts, args.gpus = 2, 16, 8
        args.requests, args.mean_tokens, args.batch_tokens = 250, 512, 4096
        args.arrival, args.load, args.slo_batches = "bursty", 0.9, 8.0
        args.skew, args.topics, args.topic_drift = 2.0, 4, 0.4
        args.failures = 0

    faults = None
    if args.failures > 0:
        expected_batches = max(
            args.requests * args.mean_tokens // args.batch_tokens, 3
        )
        fail_batch = (
            args.fail_batch
            if args.fail_batch is not None
            else max(1, expected_batches // 3)
        )
        recover = (
            args.recover_after
            if args.recover_after is not None
            else expected_batches // 3
        )
        faults = FaultConfig(
            num_failures=args.failures,
            failure_step=fail_batch,
            recovery_steps=recover if recover > 0 else None,
            seed=args.seed,
        )
    # serve always runs under a session: the latency table below is read
    # from the metrics registry the engines publish into, not from
    # report internals (tracing only when --trace-out asks for it).
    with _telemetry_scope(args, force=True) as tel:
        summary, path = _run_to_report(args.output, lambda: serving_run(
            num_moe_layers=args.layers,
            num_gpus=args.gpus,
            num_experts=args.experts,
            num_requests=args.requests,
            mean_tokens=args.mean_tokens,
            max_batch_tokens=args.batch_tokens,
            arrival=args.arrival,
            load=args.load,
            slo_batches=args.slo_batches,
            skew=args.skew,
            topic_drift=args.topic_drift,
            num_topics=args.topics,
            faults=faults,
            seed=args.seed,
        ).summary(smoke=args.smoke))
    emit_rc = _emit_telemetry(args, tel, quiet=args.json)
    if emit_rc:
        return emit_rc
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return _verdict(None, summary, enforce=args.smoke)

    scenario = summary["scenario"]
    print(
        f"serving: {args.layers} MoE layers x {args.experts} experts on "
        f"{args.gpus} GPUs, {args.requests} requests ({args.arrival} "
        f"arrival, load {args.load:.2f}, "
        f"{scenario['rate_rps']:.0f} req/s calibrated)"
    )
    print(
        f"  SLO: {1e3 * summary['slo_latency_s']:.3f} ms per request "
        f"({args.slo_batches:g} balanced batches)"
    )
    print(
        f"  {'server':<16} {'p50':>9} {'p95':>9} {'p99':>9} "
        f"{'goodput':>12} {'SLO-att':>8} {'actions':>8}"
    )
    gauges = tel.registry.snapshot()["gauges"]

    def _gauge(metric: str, engine: str) -> float:
        from repro.telemetry import metric_key

        return float(gauges[metric_key(f"serving.{metric}", engine=engine)])

    for name in ("FlexMoE-serving", "StaticServing"):
        print(
            f"  {name:<16} {1e3 * _gauge('p50_latency_s', name):>7.3f}ms "
            f"{1e3 * _gauge('p95_latency_s', name):>7.3f}ms "
            f"{1e3 * _gauge('p99_latency_s', name):>7.3f}ms "
            f"{_gauge('goodput_tokens_per_s', name):>10.0f}/s "
            f"{_gauge('slo_attainment', name):>8.3f} "
            f"{int(_gauge('placement_actions', name)):>8}"
        )
    print(
        f"  p99 speedup over Static: {summary['p99_speedup']:.2f}x, "
        f"goodput gain: {summary['goodput_gain']:.2f}x"
    )
    if path is not None:
        print(f"  report written to {path}")
    return _verdict(
        "serve smoke" if args.smoke else None, summary, enforce=args.smoke
    )


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.sim.composed import ComposedScenarioConfig, composed_scenario_run

    config = ComposedScenarioConfig(
        num_moe_layers=args.layers,
        num_gpus=args.gpus,
        num_experts=args.experts,
        num_requests=args.requests,
        load=args.load,
        num_failures=args.failures,
        budget_bandwidth=args.budget_bandwidth,
        seed=args.seed,
    )
    with _telemetry_scope(args) as tel:
        summary, path = _run_to_report(
            args.output,
            lambda: composed_scenario_run(smoke=args.smoke, config=config),
        )
    emit_rc = _emit_telemetry(args, tel, quiet=args.json)
    if emit_rc:
        return emit_rc
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return _verdict(None, summary, enforce=args.smoke)

    scenario = summary["scenario"]
    serving = summary["serving"]
    print(
        f"composed scenario: {scenario['num_moe_layers']} MoE layers x "
        f"{scenario['num_experts']} experts on {scenario['num_gpus']} GPUs, "
        f"{scenario['num_requests']} requests (diurnal arrival, load "
        f"{scenario['load']:.2f}, {scenario['rate_rps']:.0f} req/s calibrated)"
    )
    print(
        f"  one kernel, three sources: serving stream + "
        f"{scenario['num_failures']} timed device outage(s) + migration "
        f"budget at {100 * scenario['budget_bandwidth']:.0f}% bandwidth "
        f"every {1e3 * scenario['budget_interval_s']:.3f} ms"
    )
    print("  cluster events (wall-clock, not batch-quantized):")
    for event in summary["cluster_events"]:
        print(
            f"    t={1e3 * event['time_s']:9.3f} ms  {event['kind']:<8} "
            f"gpu {event['gpu']}"
        )
    print(
        f"  served {int(serving['requests_served'])} requests in "
        f"{int(serving['num_batches'])} batches "
        f"(p99 {1e3 * serving['p99_latency_s']:.3f} ms, SLO attainment "
        f"{serving['slo_attainment']:.3f}, goodput "
        f"{serving['goodput_tokens_per_s']:.0f} tokens/s)"
    )
    print(
        f"  migration budget: {summary['budget_grants']} grants committed "
        f"{summary['budget_committed_actions']} placement actions "
        f"(in-step commits are deferred in this scenario)"
    )
    print(
        f"  kernel processed {summary['processed_events']} events; experts "
        f"survive: {'yes' if summary['experts_survive'] else 'NO'}"
    )
    print(f"  report written to {path}")
    return _verdict(
        "scenario smoke" if args.smoke else None, summary, enforce=args.smoke
    )


def _cmd_churn(args: argparse.Namespace) -> int:
    from repro.bench.churn import churn_bench_run

    with _telemetry_scope(args) as tel:
        report, path = _run_to_report(
            args.output,
            lambda: churn_bench_run(smoke=args.smoke, seed=args.seed),
        )
    emit_rc = _emit_telemetry(args, tel, quiet=args.json)
    if emit_rc:
        return emit_rc
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return _verdict(None, report, enforce=args.smoke)

    print(
        "autoscale churn: paired autoscaled-vs-fixed serving under "
        "correlated spot revocations"
    )
    for name, row in report["rows"].items():
        fixed = row["fixed"]
        autoscaled = row["autoscaled"]
        controller = autoscaled["autoscaler"]
        print(
            f"  {name:<14} attainment {fixed['slo_attainment']:.3f} -> "
            f"{autoscaled['slo_attainment']:.3f} "
            f"(gain {row['attainment_gain']:+.3f}); cost-weighted goodput "
            f"{fixed['cost_weighted_goodput']:.0f} -> "
            f"{autoscaled['cost_weighted_goodput']:.0f} tokens/device-s; "
            f"{controller['scale_ups']} scale-ups"
        )
    degradation = report["degradation"]
    per_class_on = degradation["shed_on"]["serving"]["per_class"]
    per_class_off = degradation["shed_off"]["serving"]["per_class"]
    print(
        "  degradation pair (capacity loss, shed off -> on): interactive "
        f"{per_class_off['interactive']['slo_attainment']:.3f} -> "
        f"{per_class_on['interactive']['slo_attainment']:.3f}, batch "
        f"{per_class_off['batch']['slo_attainment']:.3f} -> "
        f"{per_class_on['batch']['slo_attainment']:.3f}, "
        f"{int(degradation['shed_on']['serving']['shed_requests'])} "
        "batch-class requests shed (tracked, none silently dropped)"
    )
    print(f"  report written to {path}")
    return _verdict(
        "churn smoke" if args.smoke else None, report, enforce=args.smoke
    )


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import telemetry
    from repro.sim.composed import ComposedScenarioConfig, composed_scenario_run

    config = ComposedScenarioConfig(
        num_moe_layers=args.layers,
        num_gpus=args.gpus,
        num_experts=args.experts,
        num_requests=args.requests,
        load=args.load,
        num_failures=args.failures,
        seed=args.seed,
    )
    with telemetry.session(reuse=False) as tel:
        summary = composed_scenario_run(smoke=args.smoke, config=config)
        try:
            path = tel.write(Path(args.output))
        except OSError as exc:
            print(f"error: cannot write trace to {args.output}: {exc}",
                  file=sys.stderr)
            return 2
        events = tel.tracer.events if tel.tracer is not None else []
        kinds = dict(sorted(tel.timeline.kinds().items()))
        num_series = len(tel.registry)
    if args.json:
        print(json.dumps(
            {
                "scenario": summary,
                "trace_path": str(path),
                "trace_events": len(events),
                "timeline_kinds": kinds,
                "metric_series": num_series,
            },
            indent=2, sort_keys=True,
        ))
        return _verdict(None, summary, enforce=args.smoke)

    scenario = summary["scenario"]
    serving = summary["serving"]
    print(
        f"traced composed scenario: {scenario['num_moe_layers']} MoE layers "
        f"x {scenario['num_experts']} experts on {scenario['num_gpus']} "
        f"GPUs, {scenario['num_requests']} requests, "
        f"{scenario['num_failures']} timed outage(s)"
    )
    print(
        f"  served {int(serving['requests_served'])} requests "
        f"(SLO attainment {serving['slo_attainment']:.3f}); kernel "
        f"processed {summary['processed_events']} events"
    )
    print(
        f"  captured {len(events)} trace events, "
        f"{sum(kinds.values())} decision-timeline entries, "
        f"{num_series} metric series"
    )
    print(
        "  decisions: "
        + "  ".join(f"{kind}={count}" for kind, count in kinds.items())
    )
    print(f"  trace written to {path} (open in Perfetto: ui.perfetto.dev)")
    return _verdict(
        "trace smoke" if args.smoke else None, summary, enforce=args.smoke
    )


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.bench.gates import evaluate

    code = 0
    for name in args.files:
        try:
            report = json.loads(Path(name).read_text(encoding="utf-8"))
            gates = evaluate(report)
        except (OSError, ValueError, ReproError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            code = 2
            continue
        failed = [gate for gate, held in gates.items() if not held]
        for gate in failed:
            print(f"{name}: FAILED {gate}")
        if failed:
            code = max(code, 1)
        else:
            print(f"{name}: OK ({report['suite']}, {len(gates)} gates)")
    return code


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "bench": _cmd_bench,
        "compare": _cmd_compare,
        "faults": _cmd_faults,
        "perf": _cmd_perf,
        "scale": _cmd_scale,
        "serve": _cmd_serve,
        "scenario": _cmd_scenario,
        "churn": _cmd_churn,
        "trace": _cmd_trace,
        "check": _cmd_check,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
