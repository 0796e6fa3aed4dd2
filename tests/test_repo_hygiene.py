"""Repository hygiene: no compiled bytecode may ever be committed,
every committed benchmark artifact passes its own named gates
(re-evaluated through :func:`repro.bench.gates.evaluate`), and no public
``src/`` name is reached only by tests.

The seed repo once carried ``__pycache__`` directories in the index;
``.gitignore`` now excludes them and this test (plus the same check in
``tools/check_docs.py``, which CI runs) keeps them from coming back.
"""

import ast
import json
import subprocess
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: Directories whose code, next to ``src/`` itself, counts as a use of a
#: ``src/`` name.
PRODUCTION_DIRS = ("perfbench", "benchmarks", "examples", "tools")

#: Public ``src/`` names kept although only tests reach them, with why.
TEST_ONLY_ALLOWED = {
    "repro.cluster.groups.assert_deadlock_free":
        "the oracle for Section 4's deadlock-freedom claim",
    "repro.core.router.validate_conservation":
        "token-conservation check that ROADMAP item 3 gives a production "
        "caller",
    "repro.runtime.pipeline.LayerPipeline.emitted_actions":
        "the emitted-action count ROADMAP item 6 reads",
    "repro.telemetry.registry.MetricsRegistry.histogram":
        "ROADMAP item 1 records per-term prediction error through it",
    "repro.training.loop.PipelineRunResult.live_gpus_per_step":
        "user API presented in docs/elasticity.md",
    "repro.workload.trace.RoutingTrace.save":
        "trace files, user API presented in docs/architecture.md",
    "repro.workload.trace.MultiLayerTrace.save":
        "trace files, user API presented in docs/architecture.md",
    "repro.runtime.pipeline.LayerPipeline.target_placement":
        "the planned placement tests check committed adjustments reach",
    "repro.baselines.flexmoe.FlexMoESystem.target_placement":
        "the same planned placement, for the single-layer system",
}


def tracked_files() -> list[str]:
    try:
        listed = subprocess.run(
            ["git", "ls-files"],
            cwd=REPO,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        pytest.skip("git unavailable")
    if listed.returncode != 0:
        pytest.skip("not a git checkout")
    return listed.stdout.splitlines()


def test_no_pycache_directories_tracked():
    offenders = [f for f in tracked_files() if "__pycache__" in f]
    assert offenders == [], (
        "compiled bytecode is tracked; remove with `git rm -r --cached`: "
        f"{offenders}"
    )


def test_no_bytecode_files_tracked():
    offenders = [
        f for f in tracked_files() if f.endswith((".pyc", ".pyo"))
    ]
    assert offenders == []


def test_gitignore_excludes_bytecode():
    text = (REPO / ".gitignore").read_text(encoding="utf-8")
    assert "__pycache__/" in text
    assert "*.py[cod]" in text or "*.pyc" in text


def test_committed_bench_artifacts_pass_their_gates():
    from repro.bench.gates import evaluate, stale

    artifacts = [
        f for f in tracked_files()
        if "/" not in f and f.startswith("BENCH_") and f.endswith(".json")
    ]
    assert artifacts, "no BENCH_*.json artifacts tracked at the repo root"
    for name in artifacts:
        report = json.loads((REPO / name).read_text(encoding="utf-8"))
        for key in ("suite", "smoke", "seed"):
            assert key in report, f"{name} lacks the provenance key {key!r}"
        gates = evaluate(report)
        failed = [gate for gate, held in gates.items() if not held]
        assert failed == [], f"{name} fails its gates {failed}"
        assert not stale(report, gates), (
            f"{name}: stored gates or ok disagree with the re-evaluated table"
        )


def _names_used(node: ast.AST) -> set[str]:
    """Every identifier ``node`` could reach: names, attributes, imported
    names and identifier-like strings (``getattr`` targets, tables)."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if sub.value.isidentifier():
                used.add(sub.value)
    return used


def _is_reexport(stmt: ast.stmt, path: Path) -> bool:
    """A package ``__init__``'s imports and ``__all__`` are not uses."""
    if path.name != "__init__.py":
        return False
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return True
    targets = stmt.targets if isinstance(stmt, ast.Assign) else []
    return any(getattr(t, "id", None) == "__all__" for t in targets)


def public_names_only_tests_reach() -> list[str]:
    """Public functions, classes and methods of ``src/`` that no
    production code reaches but some test names.

    Names are matched by identifier, so any same-named attribute counts as
    a use. Reachability is transitive: a definition is live once a live
    context uses its name (a method also needs its class live), and its
    body then makes its own names live. The roots are ``src/`` module
    code, every file under :data:`PRODUCTION_DIRS` and the bodies of the
    allowlisted names (which are still reported, so a stale allowlist
    entry shows).
    """
    defs = []  # [qualified name, name, names used, owning class index]
    roots = set()
    for path in sorted((REPO / "src").rglob("*.py")):
        module = ".".join(path.relative_to(REPO / "src").with_suffix("").parts)
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append(
                    [f"{module}.{stmt.name}", stmt.name, _names_used(stmt), None]
                )
            elif isinstance(stmt, ast.ClassDef):
                owner = len(defs)
                body = [f"{module}.{stmt.name}", stmt.name, set(), None]
                defs.append(body)
                for item in stmt.decorator_list + stmt.bases + stmt.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        defs.append([
                            f"{module}.{stmt.name}.{item.name}",
                            item.name,
                            _names_used(item),
                            owner,
                        ])
                    else:
                        body[2] |= _names_used(item)
            elif not _is_reexport(stmt, path):
                roots |= _names_used(stmt)
    for top in PRODUCTION_DIRS:
        for path in sorted((REPO / top).rglob("*.py")):
            roots |= _names_used(ast.parse(path.read_text(encoding="utf-8")))
    tested = set()
    for path in sorted((REPO / "tests").rglob("*.py")):
        tested |= _names_used(ast.parse(path.read_text(encoding="utf-8")))

    allowed = {name for qual, name, _, _ in defs if qual in TEST_ONLY_ALLOWED}
    for qual, _, used, _ in defs:
        if qual in TEST_ONLY_ALLOWED:
            roots |= used - allowed
    live = [False] * len(defs)
    changed = True
    while changed:
        changed = False
        for i, (_, name, used, owner) in enumerate(defs):
            dunder = name.startswith("__") and name.endswith("__")
            if live[i] or (owner is not None and not live[owner]):
                continue
            if dunder or name in roots:
                live[i] = changed = True
                roots |= used
    return sorted(
        qual
        for (qual, name, _, _), reached in zip(defs, live)
        if not reached and not name.startswith("_") and name in tested
    )


def test_no_public_name_is_reached_only_by_tests():
    flagged = public_names_only_tests_reach()
    unexpected = [q for q in flagged if q not in TEST_ONLY_ALLOWED]
    assert unexpected == [], (
        "public names only tests reach; delete each with the tests that "
        f"check only it, or allowlist it with a reason: {unexpected}"
    )
    stale = sorted(set(TEST_ONLY_ALLOWED) - set(flagged))
    assert stale == [], (
        "allowlisted names that production now reaches, or that no "
        f"longer exist; drop them from TEST_ONLY_ALLOWED: {stale}"
    )
