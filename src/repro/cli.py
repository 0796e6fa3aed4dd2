"""Command-line entry point: ``python -m repro``.

``python -m repro --help`` lists the subcommands and ``python -m repro
COMMAND --help`` describes one. ``run``, ``bench``, ``compare``,
``faults`` and ``check`` have handlers of their own. Every other
subcommand drives a report suite: :data:`REPORTS` holds one
:class:`ReportSuite` record per suite, keyed by its
:data:`repro.bench.gates.SUITES` name, and :func:`_cmd_report` runs
every record the same way. A flag several subcommands take is declared
once, in :data:`_FLAGS`; each subcommand gives its own default.

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
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, Sequence

from repro.bench.harness import (
    SMOKE,
    faults_run,
    faults_smoke,
    figure5_comparison,
    pipeline_run,
    quick_comparison,
    router_microbenchmark,
)
from repro.config import FaultConfig
from repro.exceptions import ConfigurationError, ReproError
from repro.model.zoo import MODEL_ZOO


def _seed(text: str) -> int:
    """A ``--seed`` value: NumPy seeds random draws with integers >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


#: Flags more than one subcommand takes: ``dest -> (type, help)``, where a
#: ``None`` type is a store_true switch. :func:`_add_flags` declares them.
_FLAGS: dict[str, tuple[Callable[[str], object] | None, str]] = {
    "smoke": (None, "the fixed CI-scale scenario (what CI runs)"),
    "json": (None, "machine-readable output"),
    "telemetry": (None, "print the metrics-registry snapshot after the run"),
    "output": (str, "where to write the report"),
    "trace_out": (
        str,
        "write a Chrome trace-event JSON artifact for this run (kernel "
        "spans, decision timeline, metrics snapshot; open in Perfetto or "
        "chrome://tracing, see docs/observability.md)",
    ),
    "seed": (_seed, "seed of every random draw"),
    "layers": (int, "MoE layers"),
    "experts": (int, "experts per layer"),
    "gpus": (int, "cluster size (below 8, or a multiple of 8)"),
    "steps": (int, "trace length in steps"),
    "tokens_per_gpu": (int, "tokens per device and step"),
    "warmup": (int, "cold-start steps left out of the statistics"),
    "requests": (int, "request-stream length"),
    "load": (float, "offered load vs the balanced token capacity"),
    "failures": (int, "devices that fail mid-run"),
}


def _add_flags(
    p: argparse.ArgumentParser, *switches: str, **defaults: object
) -> None:
    """Declare :data:`_FLAGS` on ``p``: each of ``switches`` as a
    store_true flag, each of ``defaults`` with this subcommand's default."""
    for dest in (*switches, *defaults):
        kind, text = _FLAGS[dest]
        option = "--" + dest.replace("_", "-")
        if kind is None:
            p.add_argument(option, action="store_true", help=text)
            continue
        default = defaults[dest]
        p.add_argument(
            option,
            type=kind,
            default=default,
            metavar="PATH" if kind is str else None,
            help=text if default is None else f"{text} (default: %(default)s)",
        )


class _PathError(ReproError):
    """An output path cannot take its artifact."""

    def __init__(self, what: str, path: str | Path, exc: OSError) -> None:
        super().__init__(f"cannot write {what} to {path}: {exc}")


@contextmanager
def _probed(what: str, path: str | None) -> Iterator[Path | None]:
    """``path`` (``None``: nothing to write), checked writable up front.

    An unwritable path fails in milliseconds instead of after the whole
    simulation, and the empty probe file never outlives a failed run.
    """
    if path is None:
        yield None
        return
    target = Path(path)
    created = not target.exists()
    try:
        open(target, "a", encoding="utf-8").close()
    except OSError as exc:
        raise _PathError(what, path, exc) from exc
    try:
        yield target
    except BaseException:
        if created:
            with suppress(OSError):
                if target.stat().st_size == 0:
                    target.unlink()
        raise


def _save(what: str, path: Path, write: Callable[[Path], object]) -> None:
    try:
        write(path)
    except OSError as exc:
        raise _PathError(what, path, exc) from exc


@contextmanager
def _telemetry_scope(wanted: bool) -> Iterator[object]:
    """A fresh telemetry session when ``wanted``, else ``None`` -- so
    default runs stay on the telemetry-disabled fast path."""
    if not wanted:
        yield None
        return
    from repro import telemetry

    with telemetry.session(reuse=False) as tel:
        yield tel


def _emit_telemetry(
    args: argparse.Namespace, tel, trace_path: Path | None
) -> None:
    """Write the ``--trace-out`` artifact and print what ``--trace-out``
    and ``--telemetry`` ask for (nothing under ``--json``)."""
    if trace_path is not None:
        _save("trace", trace_path, tel.write)
        if not args.json:
            events = len(tel.tracer.events) if tel.tracer is not None else 0
            print(
                f"trace written to {trace_path} ({events} trace events, "
                f"{len(tel.timeline)} timeline entries)"
            )
    if args.telemetry and not args.json:
        print(tel.registry.to_json())


# ----------------------------------------------------------------------
# run / bench / compare / faults / check
# ----------------------------------------------------------------------
def _add_run_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "run",
        help="run the multi-layer pipelined FlexMoE engine",
        description=(
            "Simulate FlexMoE over every MoE layer of a transformer: "
            "per-layer placements and adjustment streams, with All-to-All "
            "overlapped against the dense blocks. Prints the step-time "
            "breakdown and the per-layer placement divergence."
        ),
    )
    _add_flags(
        p, layers=4, experts=32, gpus=16, steps=30, tokens_per_gpu=32_768
    )
    p.add_argument("--d-model", type=int, default=2048)
    p.add_argument("--d-ffn", type=int, default=8192)
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
    _add_flags(p, "json", "telemetry", warmup=5, seed=0, trace_out=None)


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
    _add_flags(p, "smoke", "json", experts=64, gpus=16, seed=0)
    p.add_argument("--repeats", type=int, default=30)


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
    _add_flags(p, "json", experts=16, gpus=8, steps=40, seed=0)


def _add_faults_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "faults",
        help="failure/straggler scenarios on an elastic cluster",
        description=(
            "Inject a seeded elasticity schedule (device failures, "
            "recoveries, stragglers, optional static heterogeneity) into "
            "two identical runs -- FlexMoE with dynamic placement vs a "
            "static baseline -- and report how each absorbs the events. "
            "--smoke runs a small fixed scenario and fails unless FlexMoE "
            "re-homes and recovers."
        ),
    )
    _add_flags(
        p, "smoke", "json",
        layers=2, experts=16, gpus=8, steps=50, tokens_per_gpu=16_384,
        warmup=5, failures=1, seed=0,
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


def _add_check_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "check",
        help="re-evaluate the named gates of BENCH_*.json reports",
        description=(
            "Re-evaluate each report's gates from the file alone (the "
            "table in repro.bench.gates, chosen by the report's suite) "
            "and print every failed gate by name; a report whose stored "
            "gates or ok disagree with the table fails stale_gates. "
            "Exits 0 when every gate holds, 1 when any gate fails, 2 for "
            "an unreadable file or an unknown suite."
        ),
    )
    p.add_argument("files", nargs="+", metavar="FILE")


def _cmd_run(args: argparse.Namespace) -> int:
    with _probed("trace", args.trace_out) as trace_path:
        with _telemetry_scope(bool(trace_path or args.telemetry)) as tel:
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
        _emit_telemetry(args, tel, trace_path)
    summary = run.summary()
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


def _faults_scenario(args: argparse.Namespace) -> dict[str, object]:
    """:func:`faults_run` arguments of a custom ``faults`` run."""
    recover = (
        args.recover_after if args.recover_after is not None else args.steps // 4
    )
    return {
        "num_moe_layers": args.layers,
        "num_gpus": args.gpus,
        "num_experts": args.experts,
        "num_steps": args.steps,
        "tokens_per_gpu": args.tokens_per_gpu,
        "warmup": args.warmup,
        "faults": FaultConfig(
            num_failures=args.failures,
            failure_step=(
                args.fail_step if args.fail_step is not None
                else args.steps // 4
            ),
            recovery_steps=recover if recover > 0 else None,
            num_stragglers=args.stragglers,
            straggler_factor=args.straggler_factor,
            straggler_step=(
                args.straggler_step
                if args.straggler_step is not None
                else max(2, args.steps // 10)
            ),
            seed=args.seed,
        ),
        "slow_gpus": args.slow_gpus,
        "slow_factor": args.slow_factor,
        "spike_period": args.spike_period,
        "seed": args.seed,
    }


def _cmd_faults(args: argparse.Namespace) -> int:
    scenario = (
        faults_smoke(args.seed) if args.smoke else _faults_scenario(args)
    )
    result = faults_run(**scenario)
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
        f"elastic scenario: {scenario['num_moe_layers']} MoE layers x "
        f"{scenario['num_experts']} experts on {scenario['num_gpus']} GPUs, "
        f"{scenario['num_steps']} steps, seed {scenario['seed']}"
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


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.bench.gates import evaluate, stale

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
        if stale(report, gates):
            failed.append("stale_gates")
        for gate in failed:
            print(f"{name}: FAILED {gate}")
        if failed:
            code = max(code, 1)
        else:
            print(f"{name}: OK ({report['suite']}, {len(gates)} gates)")
    return code


# ----------------------------------------------------------------------
# Report suites
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReportSuite:
    """How ``python -m repro`` drives one report suite.

    Attributes:
        command: The invocation, e.g. ``serve --multi-tenant`` for a suite
            a flag of another suite's subcommand selects.
        output: The report's canonical path, the ``--output`` default.
        build: Runs the suite from the parsed flags; returns the sealed
            report (``"gates"`` and ``"ok"``, see :mod:`repro.bench.gates`).
        show: Prints the human-readable table of a report.
        help: The subcommand's one-line help; empty when the suite shares
            its subcommand with another record.
        description: The subcommand's ``--help`` text.
        flags: Declares the flags the suite takes beyond ``--seed``,
            ``--smoke``, ``--output`` and ``--json``.
        gated: A failed gate fails every run, not only ``--smoke``.
        custom_output: Runs without ``--smoke`` write ``output`` too;
            otherwise they write only to an explicit ``--output``.
        trace_output: ``--output`` takes the run's Chrome trace (the run
            is always under a telemetry session) instead of the JSON
            report, and ``--json`` prints :func:`_trace_summary`.
        indent: Leading spaces of the "report written to" line.
    """

    command: str
    output: str
    build: Callable[[argparse.Namespace], dict]
    show: Callable[[dict], None]
    help: str = ""
    description: str = ""
    flags: Callable[[argparse.ArgumentParser], None] = lambda p: None
    gated: bool = False
    custom_output: bool = True
    trace_output: bool = False
    indent: str = "  "

    @property
    def label(self) -> str:
        """The verdict line's name: ``serve multi-tenant``, ``perf``, ..."""
        return self.command.replace(" --", " ")


def _scenario(args: argparse.Namespace) -> dict[str, object]:
    """The scenario flags ``serve``, ``scenario`` and ``trace`` share, as
    suite keyword arguments."""
    return {
        "num_moe_layers": args.layers,
        "num_gpus": args.gpus,
        "num_experts": args.experts,
        "num_requests": args.requests,
        "load": args.load,
        "seed": args.seed,
    }


def _perf(args: argparse.Namespace) -> dict:
    from repro.bench.perf import perf_suite

    return perf_suite(smoke=args.smoke, seed=args.seed)


def _show_perf(report: dict) -> None:
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
        f"dispatch  events {kernel_events['events_per_sec']:8.0f} events/s "
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


def _scale(args: argparse.Namespace) -> dict:
    from repro.bench.scale import scale_suite

    return scale_suite(smoke=args.smoke, seed=args.seed)


def _show_scale(report: dict) -> None:
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


def _serve_flags(p: argparse.ArgumentParser) -> None:
    _add_flags(
        p, layers=2, experts=16, gpus=8, requests=400, load=0.9, failures=0
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
        "--fail-batch", type=int, default=None,
        help="batch index of the first failure (default: a third in)",
    )
    p.add_argument(
        "--recover-after", type=int, default=None,
        help="batches until a failed device rejoins (0 = never)",
    )
    p.add_argument(
        "--multi-tenant",
        action="store_true",
        help="multi-tenant comparison: an interactive tenant plus two "
        "batch tenants; FlexMoE placement with priority admission and "
        "preemption vs static placement with a global FIFO "
        "(BENCH_multitenant.json)",
    )
    _add_flags(p, "telemetry", trace_out=None)


def _serve(args: argparse.Namespace) -> dict:
    from repro.bench.serving import serving_suite

    faults = None
    if args.failures > 0:
        # The probe rejects a zero budget; only size the faults here.
        expected_batches = max(
            args.requests * args.mean_tokens // max(args.batch_tokens, 1), 3
        )
        recover = (
            args.recover_after
            if args.recover_after is not None
            else expected_batches // 3
        )
        faults = FaultConfig(
            num_failures=args.failures,
            failure_step=(
                args.fail_batch
                if args.fail_batch is not None
                else max(1, expected_batches // 3)
            ),
            recovery_steps=recover if recover > 0 else None,
            seed=args.seed,
        )
    return serving_suite(
        smoke=args.smoke,
        **_scenario(args),
        mean_tokens=args.mean_tokens,
        max_batch_tokens=args.batch_tokens,
        arrival=args.arrival,
        slo_batches=args.slo_batches,
        skew=args.skew,
        topic_drift=args.topic_drift,
        num_topics=args.topics,
        faults=faults,
    )


def _show_serve(report: dict) -> None:
    scenario = report["scenario"]
    print(
        f"serving: {scenario['num_moe_layers']} MoE layers x "
        f"{scenario['num_experts']} experts on {scenario['num_gpus']} GPUs, "
        f"{scenario['num_requests']} requests ({scenario['arrival']} "
        f"arrival, load {scenario['load']:.2f}, "
        f"{scenario['rate_rps']:.0f} req/s calibrated)"
    )
    slo = report["slo_latency_s"]
    print(
        f"  SLO: {1e3 * slo:.3f} ms per request "
        f"({slo / scenario['balanced_batch_s']:g} balanced batches)"
    )
    print(
        f"  {'server':<16} {'p50':>9} {'p95':>9} {'p99':>9} "
        f"{'goodput':>12} {'SLO-att':>8} {'actions':>8}"
    )
    for name, key in (("FlexMoE-serving", "flexmoe"), ("StaticServing", "static")):
        s = report[key]
        print(
            f"  {name:<16} {1e3 * s['p50_latency_s']:>7.3f}ms "
            f"{1e3 * s['p95_latency_s']:>7.3f}ms "
            f"{1e3 * s['p99_latency_s']:>7.3f}ms "
            f"{s['goodput_tokens_per_s']:>10.0f}/s "
            f"{s['slo_attainment']:>8.3f} "
            f"{int(s['placement_actions']):>8}"
        )
    print(
        f"  p99 speedup over Static: {report['p99_speedup']:.2f}x, "
        f"goodput gain: {report['goodput_gain']:.2f}x"
    )


def _serve_multitenant(args: argparse.Namespace) -> dict:
    from repro.bench.serving import multitenant_suite

    if args.failures > 0:
        raise ConfigurationError(
            "serve --multi-tenant injects no device failures; drop "
            "--failures (the composed scenario and churn commands run "
            "serving under capacity loss)"
        )
    return multitenant_suite(
        smoke=args.smoke,
        **_scenario(args),
        max_batch_tokens=args.batch_tokens,
        skew=args.skew,
        topic_drift=args.topic_drift,
        num_topics=args.topics,
    )


def _show_serve_multitenant(report: dict) -> None:
    scenario = report["scenario"]
    print(
        f"multi-tenant serving: {scenario['num_moe_layers']} MoE layers x "
        f"{scenario['num_experts']} experts on {scenario['num_gpus']} GPUs, "
        f"{scenario['num_requests']} requests across "
        f"{len(report['tenants'])} tenants (load {scenario['load']:.2f}, "
        f"{scenario['rate_rps']:.0f} req/s calibrated)"
    )
    for row in report["tenants"]:
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
        for cls_name, s in sorted(report[key]["per_class"].items()):
            print(
                f"  {name:<22} {cls_name:<11} "
                f"{1e3 * s['slo_latency_s']:>7.3f}ms "
                f"{s['slo_attainment']:>8.3f} "
                f"{int(s['requests_served']):>7} "
                f"{int(s['requests_rejected']):>8}"
            )
    print(
        f"  interactive attainment: FlexMoE+priority "
        f"{report['interactive_attainment']['flexmoe']:.3f} vs Static+FIFO "
        f"{report['interactive_attainment']['fifo']:.3f} "
        f"(gain {report['attainment_gain']:+.3f})"
    )
    print(
        f"  Jain fairness (FlexMoE+priority): "
        f"{report['jain_fairness']:.3f} (floor "
        f"{report['fairness_floor']:.2f}), preemptions "
        f"{int(report['flexmoe']['preemptions'])}"
    )


def _composed(args: argparse.Namespace, **config: object) -> dict:
    from repro.sim.composed import ComposedScenarioConfig, composed_scenario_run

    return composed_scenario_run(
        smoke=args.smoke,
        config=ComposedScenarioConfig(
            **_scenario(args), num_failures=args.failures, **config
        ),
    )


def _composed_flags(p: argparse.ArgumentParser) -> None:
    _add_flags(
        p, layers=2, experts=16, gpus=8, requests=400, load=0.85, failures=1
    )


def _scenario_flags(p: argparse.ArgumentParser) -> None:
    _composed_flags(p)
    p.add_argument(
        "--budget-bandwidth", type=float, default=0.5,
        help="fraction of link time each migration-budget grant hands "
        "the adjustment streams (default 0.5)",
    )
    _add_flags(p, "telemetry", trace_out=None)


def _show_scenario(report: dict) -> None:
    scenario = report["scenario"]
    serving = report["serving"]
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
    for event in report["cluster_events"]:
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
        f"  migration budget: {report['budget_grants']} grants committed "
        f"{report['budget_committed_actions']} placement actions "
        f"(in-step commits are deferred in this scenario)"
    )
    print(
        f"  kernel processed {report['processed_events']} events; experts "
        f"survive: {'yes' if report['experts_survive'] else 'NO'}"
    )


def _churn(args: argparse.Namespace) -> dict:
    from repro.bench.churn import churn_bench_run

    return churn_bench_run(smoke=args.smoke, seed=args.seed)


def _show_churn(report: dict) -> None:
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


def _trace_summary(report: dict, path: Path, tel) -> dict:
    """What ``trace --json`` prints: the scenario report plus what the
    trace artifact at ``path`` captured."""
    return {
        "scenario": report,
        "trace_path": str(path),
        "trace_events": len(tel.tracer.events) if tel.tracer is not None else 0,
        "timeline_kinds": dict(sorted(tel.timeline.kinds().items())),
        "metric_series": len(tel.registry),
    }


def _show_trace(summary: dict) -> None:
    scenario = summary["scenario"]["scenario"]
    serving = summary["scenario"]["serving"]
    kinds = summary["timeline_kinds"]
    print(
        f"traced composed scenario: {scenario['num_moe_layers']} MoE layers "
        f"x {scenario['num_experts']} experts on {scenario['num_gpus']} "
        f"GPUs, {scenario['num_requests']} requests, "
        f"{scenario['num_failures']} timed outage(s)"
    )
    print(
        f"  served {int(serving['requests_served'])} requests "
        f"(SLO attainment {serving['slo_attainment']:.3f}); kernel "
        f"processed {summary['scenario']['processed_events']} events"
    )
    print(
        f"  captured {summary['trace_events']} trace events, "
        f"{sum(kinds.values())} decision-timeline entries, "
        f"{summary['metric_series']} metric series"
    )
    print(
        "  decisions: "
        + "  ".join(f"{kind}={count}" for kind, count in kinds.items())
    )
    print(
        f"  trace written to {summary['trace_path']} "
        "(open in Perfetto: ui.perfetto.dev)"
    )


#: Every report suite the CLI drives, keyed by its
#: :data:`repro.bench.gates.SUITES` name; ``trace`` re-runs the composed
#: scenario for its Chrome trace.
REPORTS: dict[str, ReportSuite] = {
    "step_overhead": ReportSuite(
        command="perf",
        output="BENCH_step_overhead.json",
        build=_perf,
        show=_show_perf,
        help="scheduling-overhead benchmark (delta vs reference planner)",
        description=(
            "Benchmark the scheduling hot path: planner rounds/sec with "
            "the incremental delta-cost evaluator vs the full-recompute "
            "reference planner, asserting identical decisions, plus the "
            "event kernel's hosting overhead and serving/kernel event "
            "throughput. --smoke runs CI-scale scenarios. Every run fails "
            "unless each named gate holds, e.g. no delta fallback to full "
            "recomputation and no diverged decision."
        ),
        gated=True,
        indent="",
    ),
    "scale": ReportSuite(
        command="scale",
        output="BENCH_scale.json",
        build=_scale,
        show=_show_scale,
        help="datacenter-scale sweep: 64 to 4096 devices",
        description=(
            "Sweep cluster size from 64 to 4096 devices (experts and "
            "layers scaled alongside) and record planner rounds/sec of "
            "the hierarchical two-level placement search vs the flat "
            "full-cluster sweep, engine steps/sec where the ground-truth "
            "executor is feasible, and kernel events/sec with fan-out "
            "scaled to the layer count. --smoke keeps the 64- and "
            "1024-device columns. Every run fails unless each named gate "
            "holds."
        ),
        gated=True,
        indent="",
    ),
    "serving_latency": ReportSuite(
        command="serve",
        output="BENCH_serving_latency.json",
        build=_serve,
        show=_show_serve,
        help="online serving: SLO-aware request stream, FlexMoE vs Static",
        description=(
            "Serve an identical seeded request stream (bursty or diurnal "
            "arrival, drifting topic mix shifting expert popularity) with "
            "the dynamic FlexMoE server and the frozen StaticServing "
            "baseline, and report p50/p95/p99 latency and goodput under "
            "the SLO. --smoke runs the fixed CI scenario, writes "
            "BENCH_serving_latency.json (BENCH_multitenant.json with "
            "--multi-tenant) and fails on any SLO-comparison regression; "
            "custom runs write no report unless given --output. Under "
            "--multi-tenant, --layers, --experts, --gpus, --requests, "
            "--batch-tokens, --load, --skew, --topics, --topic-drift and "
            "--seed apply; --failures is refused."
        ),
        flags=_serve_flags,
        custom_output=False,
    ),
    "multitenant_serving": ReportSuite(
        command="serve --multi-tenant",
        output="BENCH_multitenant.json",
        build=_serve_multitenant,
        show=_show_serve_multitenant,
        custom_output=False,
    ),
    "composed_scenario": ReportSuite(
        command="scenario",
        output="BENCH_composed_scenario.json",
        build=lambda args: _composed(
            args, budget_bandwidth=args.budget_bandwidth
        ),
        show=_show_scenario,
        help="composed scenario on the unified simulation kernel",
        description=(
            "Run a declarative composed scenario on the shared "
            "discrete-event kernel: an SLO-aware diurnal serving stream, "
            "wall-clock-timed device failures and recoveries, and a "
            "metered background migration budget all advance one clock "
            "(see docs/simulation.md). Above one failure, a "
            "budget-starved re-home can legitimately abort the run with "
            "'model states are gone'. --smoke runs the CI-scale scenario "
            "and fails unless every named gate holds."
        ),
        flags=_scenario_flags,
    ),
    "autoscale_churn": ReportSuite(
        command="churn",
        output="BENCH_autoscale_churn.json",
        build=_churn,
        show=_show_churn,
        help="autoscaler vs fixed pool under spot churn + degradation pair",
        description=(
            "Close the SLO loop under capacity loss: paired "
            "autoscaled-vs-fixed serving runs through correlated spot "
            "revocation waves (plus outage, heterogeneous-standby and "
            "multi-day variants), and a multi-tenant graceful-degradation "
            "pair that sheds lowest-priority work first when devices "
            "vanish (see docs/autoscaling.md). --smoke runs the CI-scale "
            "matrix and fails unless every named gate holds."
        ),
        flags=lambda p: _add_flags(p, "telemetry", trace_out=None),
    ),
    "trace": ReportSuite(
        command="trace",
        output="trace.json",
        build=_composed,
        show=_show_trace,
        help="composed scenario under a full telemetry session",
        description=(
            "Run the composed kernel scenario (serving + timed outages + "
            "migration budget) with the telemetry layer fully on, and "
            "export one Chrome trace-event JSON artifact: kernel event "
            "spans per priority lane, serving-batch spans, control-plane "
            "decision instants, plus the decision timeline and metrics "
            "snapshot in metadata. Open it in Perfetto (ui.perfetto.dev) "
            "or chrome://tracing; see docs/observability.md. --smoke runs "
            "the CI-scale scenario and fails unless every named gate holds."
        ),
        flags=_composed_flags,
        trace_output=True,
    ),
}


def _add_report_parser(
    sub: argparse._SubParsersAction, suite: ReportSuite
) -> None:
    p = sub.add_parser(
        suite.command, help=suite.help, description=suite.description
    )
    p.set_defaults(trace_out=None, telemetry=False, multi_tenant=False)
    suite.flags(p)
    _add_flags(
        p, "smoke", "json",
        seed=0, output=suite.output if suite.custom_output else None,
    )


def _cmd_report(args: argparse.Namespace) -> int:
    """Run one :class:`ReportSuite`: probe the output paths, build the
    report under the telemetry scope, write it, emit telemetry, print
    JSON or the table, and return the verdict."""
    from repro.bench.perf import write_report

    command = args.command + (" --multi-tenant" if args.multi_tenant else "")
    suite = next(s for s in REPORTS.values() if s.command == command)
    output = args.output
    if output is None and args.smoke:
        output = suite.output
    with (
        _probed("report", output) as path,
        _probed("trace", args.trace_out) as trace_path,
    ):
        with _telemetry_scope(
            bool(suite.trace_output or trace_path or args.telemetry)
        ) as tel:
            report = suite.build(args)
        if path is not None:
            _save("report", path, (
                tel.write if suite.trace_output
                else partial(write_report, report)
            ))
        _emit_telemetry(args, tel, trace_path)
    shown = _trace_summary(report, path, tel) if suite.trace_output else report
    if args.json:
        print(json.dumps(shown, indent=2, sort_keys=True))
    else:
        suite.show(shown)
        if path is not None and not suite.trace_output:
            print(f"{suite.indent}report written to {path}")
    enforce = suite.gated or args.smoke
    failed = [name for name, held in report["gates"].items() if not held]
    if enforce and not args.json:
        print(
            f"{suite.label}{'' if suite.gated else ' smoke'}:",
            f"FAILED {', '.join(failed)}" if failed else "OK",
        )
    return 1 if failed and enforce else 0


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
    for suite in REPORTS.values():
        if suite.help:
            _add_report_parser(sub, suite)
    _add_check_parser(sub)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "bench": _cmd_bench,
        "compare": _cmd_compare,
        "faults": _cmd_faults,
        "check": _cmd_check,
    }
    try:
        return handlers.get(args.command, _cmd_report)(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
