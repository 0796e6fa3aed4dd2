#!/usr/bin/env python3
"""Execution reachability: every function under ``src/`` runs under a
production entry point.

The tool runs each entry point in this process under
:func:`sys.setprofile` and records every code object entered:

* every ``python -m repro`` command line in the ``run:`` steps of
  ``.github/workflows/ci.yml``, from a scratch directory, so the
  commands write and re-check their reports there as CI does; then
  :data:`EXTRA_CLI_RUNS`: ``run --telemetry``, a custom ``faults``
  scenario, ``compare``, ``trace`` and ``check`` on the committed
  ``BENCH_*.json``;
* each ``examples/*.py``, as ``__main__``;
* the ``benchmarks/bench_*.py`` tests and ``perfbench/tests``, through
  pytest with ``--benchmark-disable`` (pytest-benchmark then runs each
  body once instead of pausing the hook while it times it); a pytest
  hookwrapper re-installs the hook around every test, in case a test
  clears it.

``repro`` is first imported inside a recorded body, so functions that
run at import time count as run. The tool then fails on any function
under ``src/`` (a ``def`` at any depth; lambdas and comprehensions count
as part of theirs) that no entry point entered, unless :data:`ALLOWED`
names it with a reason. An :data:`ALLOWED` entry that names no function
under ``src/``, or whose functions an entry point ran, fails too.
``tests/test_repo_hygiene.py`` reads the same allowlist for its
identifier scan of public names only tests reach.

An entry point that exits non-zero or raises is reported but does not
fail the check: wall-clock gates such as ``hierarchical_wins_at_scale``
read differently under the hook, and CI's own jobs gate them.

    PYTHONPATH=src python tools/reachability.py

takes about 4 minutes on a 2-core x86 host, most of it the benchmark
tests, and exits 0 when clean, 1 with a report of each unreached
function or stale allowlist entry.
"""

from __future__ import annotations

import contextlib
import importlib.util
import inspect
import io
import os
import runpy
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import CodeType

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: Functions no entry point runs, kept with a reason. Keys are
#: ``module.qualname`` (``repro.core.placement.Placement.validate``).
#: ``tests/test_repo_hygiene.py`` reads this table too.
ALLOWED = {
    # Oracles, checks and counters a ROADMAP item gives a production
    # caller.
    "repro.cluster.groups.assert_deadlock_free":
        "the oracle for Section 4's deadlock-freedom claim",
    "repro.core.router.validate_conservation":
        "token-conservation check that ROADMAP item 3 gives a production "
        "caller",
    "repro.core.router.RoutingPlan.arrivals":
        "per-vExpert arrivals: the capacity invariant ROADMAP item 3 gates",
    "repro.telemetry.registry.MetricsRegistry.histogram":
        "ROADMAP item 1 records per-term prediction error through it",
    "repro.telemetry.registry.Histogram.__init__":
        "built only by MetricsRegistry.histogram (ROADMAP item 1)",
    "repro.telemetry.registry.Histogram.observe":
        "fed only through MetricsRegistry.histogram (ROADMAP item 1)",
    # What perfbench/ references; only a benchmark change may edit it
    # (ROADMAP item 6).
    "repro.runtime.pipeline.LayerPipeline.route":
        "perfbench wraps it as the router.route span (ROADMAP item 6)",
    "repro.core.router.RoutingPlan.locality_fraction":
        "perfbench's router.route span reads it (ROADMAP item 6)",
    "repro.runtime.pipeline.LayerPipeline.emitted_actions":
        "the emitted-action count ROADMAP item 6 reads",
    "repro.runtime.adjustment.AdjustmentStream.emitted":
        "read only through LayerPipeline.emitted_actions (ROADMAP item 6)",
    # Language-level roles: they run only on misuse or never by design.
    "repro.cluster.bandwidth.BandwidthModel.__init__":
        "refuses direct construction; blocked() and from_dense() build "
        "instances",
    "repro.core.trigger.Trigger.should_trigger":
        "Protocol stub; every trigger implements it",
    "repro.sim.kernel.EventSource.prime":
        "Protocol stub; every event source implements it",
    "repro.baselines.base.MoESystem.step":
        "abstract method; every training system implements it",
    "repro.model.layers.Module.forward":
        "abstract stub; every layer overrides it",
    "repro.model.layers.Module.backward":
        "abstract stub; every layer overrides it",
    "repro.core.placement.Placement.__eq__":
        "value equality; tests compare a committed placement with its "
        "target",
    "repro.runtime.pipeline.LayerPipeline.target_placement":
        "the planned placement tests check committed adjustments reach",
    "repro.baselines.flexmoe.FlexMoESystem.target_placement":
        "the same planned placement, for the single-layer system",
    # Safety code: runs only on bad outside input.
    "repro.cli._PathError.__init__":
        "safety code: an unwritable --output or --trace-out path",
    # A documented defect leaves it unrun; the doc names the cause.
    "repro.sim.sources.AutoscalerSource._release_newest":
        "scale-down never fires in the churn matrix; the cause (a latency "
        "window that never ages) is in docs/autoscaling.md",
    # User API presented in the docs.
    "repro.training.loop.PipelineRunResult.live_gpus_per_step":
        "user API presented in docs/elasticity.md",
    "repro.workload.trace.RoutingTrace.save":
        "trace files, user API presented in docs/architecture.md",
    "repro.workload.trace.RoutingTrace.load":
        "trace files, user API presented in docs/architecture.md",
    "repro.workload.trace.MultiLayerTrace.save":
        "trace files, user API presented in docs/architecture.md",
    "repro.workload.trace.MultiLayerTrace.load":
        "trace files, user API presented in docs/architecture.md",
    "repro.workload.trace.RoutingTrace.__eq__":
        "value equality; trace-file round trips are checked by it",
    "repro.workload.trace.MultiLayerTrace.__eq__":
        "value equality; trace-file round trips are checked by it",
}

#: ``python -m repro`` runs besides CI's, each from the scratch directory;
#: :func:`cli_runs` adds ``check`` on every committed ``BENCH_*.json``.
EXTRA_CLI_RUNS = (
    ["run", "--layers", "2", "--experts", "8", "--gpus", "4", "--steps",
     "6", "--warmup", "1", "--d-model", "256", "--d-ffn", "1024",
     "--seed", "1", "--telemetry"],
    ["faults", "--layers", "1", "--experts", "8", "--gpus", "4", "--steps",
     "12", "--tokens-per-gpu", "4096", "--fail-step", "3",
     "--recover-after", "4", "--slow-gpus", "1", "--seed", "1"],
    ["compare", "--gpus", "8", "--experts", "16", "--steps", "8",
     "--seed", "1"],
    ["trace", "--smoke"],
)


def cli_runs() -> list[list[str]]:
    """CI's ``python -m repro`` argvs in workflow order, then
    :data:`EXTRA_CLI_RUNS` and ``check`` on the committed artifacts."""
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO / "tools" / "check_docs.py"
    )
    check_docs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_docs)
    workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text(
        encoding="utf-8"
    )
    runs = [
        argv
        for step in check_docs.ci_run_steps(workflow)
        for argv in check_docs.repro_commands(step)
    ]
    artifacts = sorted(str(path) for path in REPO.glob("BENCH_*.json"))
    return runs + [list(argv) for argv in EXTRA_CLI_RUNS] + [
        ["check", *artifacts]
    ]


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
class Recorder:
    """Every code object entered while :meth:`run` runs a body."""

    def __init__(self) -> None:
        self.entered: set[CodeType] = set()

    def profile(self, frame, event, arg) -> None:
        if event == "call":
            self.entered.add(frame.f_code)

    def run(self, label: str, body) -> tuple[str, float, str]:
        """Run ``body()`` under the hook with its output captured;
        return ``(label, seconds, outcome)``. A failure's output is
        echoed to stderr."""
        out = io.StringIO()
        start = time.perf_counter()
        try:
            stdout = contextlib.redirect_stdout(out)
            with stdout, contextlib.redirect_stderr(out):
                sys.setprofile(self.profile)
                try:
                    code = body()
                finally:
                    sys.setprofile(None)
            outcome = "ok" if code in (0, None) else f"exit {code}"
        except SystemExit as exc:
            outcome = "ok" if exc.code in (0, None) else f"exit {exc.code}"
        except Exception as exc:  # reported; see the module docstring
            out.write(traceback.format_exc())
            outcome = f"raised {type(exc).__name__}: {exc}"
        if outcome != "ok":
            print(out.getvalue()[-4000:], file=sys.stderr)
        return label, time.perf_counter() - start, outcome


def _run_cli(argv: list[str]) -> int:
    # Imported here, inside a recorded body, so what runs at import time
    # (module-level tables such as ``SMOKE = FULL.smoke()``) counts.
    from repro.cli import main

    return main(argv)


def _run_example(path: Path) -> None:
    runpy.run_path(str(path), run_name="__main__")


def run_entry_points(recorder: Recorder) -> list[tuple[str, float, str]]:
    """Run every entry point from the current directory under
    ``recorder``; one record per run."""
    import pytest

    class ReinstallHook:
        """The profile hook is live around every test."""

        @pytest.hookimpl(hookwrapper=True)
        def pytest_runtest_call(self, item):
            sys.setprofile(recorder.profile)
            yield

    records = [
        recorder.run(
            f"python -m repro {' '.join(argv)}", lambda a=argv: _run_cli(a)
        )
        for argv in cli_runs()
    ]
    records += [
        recorder.run(f"examples/{path.name}", lambda p=path: _run_example(p))
        for path in sorted((REPO / "examples").glob("*.py"))
    ]
    tests = [
        *sorted(str(p) for p in (REPO / "benchmarks").glob("bench_*.py")),
        str(REPO / "perfbench" / "tests"),
    ]
    records.append(recorder.run(
        "pytest benchmarks/bench_*.py perfbench/tests",
        lambda: pytest.main(
            ["-q", "-p", "no:cacheprovider", "--benchmark-disable", *tests],
            plugins=[ReinstallHook()],
        ),
    ))
    return records


# ----------------------------------------------------------------------
# Checking
# ----------------------------------------------------------------------
def _key(code: CodeType) -> tuple[str, int, str]:
    filename = os.path.realpath(code.co_filename)
    return filename, code.co_firstlineno, code.co_qualname


def src_functions() -> dict[tuple[str, int, str], str]:
    """Every function under ``src/``: ``code key -> module.qualname``."""
    functions = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        filename = os.path.realpath(path)
        stack = [compile(path.read_text(encoding="utf-8"), filename, "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
            function = code.co_flags & inspect.CO_OPTIMIZED
            if function and not code.co_name.startswith("<"):
                functions[_key(code)] = f"{module}.{code.co_qualname}"
    return functions


def findings(functions: dict, reached: set) -> list[str]:
    """Unreached functions and stale :data:`ALLOWED` entries.

    An entry covers every function of its name (a property's getter and
    setter share one), so it is stale only once all of them ran.
    """
    unreached = {name for key, name in functions.items() if key not in reached}
    problems = [
        f"unreached: {name} ({Path(key[0]).relative_to(REPO)}:{key[1]})"
        for key, name in sorted(functions.items(), key=lambda kv: kv[1])
        if key not in reached and name not in ALLOWED
    ]
    names = set(functions.values())
    for name in sorted(ALLOWED):
        if name not in names:
            problems.append(f"allowlisted but no such function: {name}")
        elif name not in unreached:
            problems.append(f"allowlisted but an entry point ran it: {name}")
    return problems


def main() -> int:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        recorder = Recorder()
        cwd = os.getcwd()
        os.chdir(scratch)
        try:
            records = run_entry_points(recorder)
        finally:
            os.chdir(cwd)
    for label, seconds, outcome in records:
        print(f"{seconds:8.1f} s  {outcome:<8} {label}")
    functions = src_functions()
    reached = {_key(code) for code in recorder.entered}
    print(
        f"{sum(key in reached for key in functions)} of {len(functions)} "
        f"functions under src/ ran; {len(ALLOWED)} allowlisted; "
        f"{time.perf_counter() - start:.0f} s in all"
    )
    problems = findings(functions, reached)
    for problem in problems:
        print(problem)
    if problems:
        print(
            f"{len(problems)} finding(s): delete each unreached function, "
            "give it an entry point, or allowlist it in tools/reachability.py "
            "with a reason"
        )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
