"""Repository hygiene: no compiled bytecode may ever be committed, and
every committed benchmark artifact passes its own named gates
(re-evaluated through :func:`repro.bench.gates.evaluate`).

The seed repo once carried ``__pycache__`` directories in the index;
``.gitignore`` now excludes them and this test (plus the same check in
``tools/check_docs.py``, which CI runs) keeps them from coming back.
"""

import json
import subprocess
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


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
