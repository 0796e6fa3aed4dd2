"""The execution-reachability tool (``tools/reachability.py``) itself.

The tool's full run takes minutes, so CI gives it its own job; these
tests pin its two halves on small inputs: what :class:`Recorder`
records, and what :func:`findings` reports.
"""

import importlib
import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location(
        "reachability", REPO / "tools" / "reachability.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reachability = _tool()


def test_import_time_calls_of_a_module_first_imported_in_a_run_count(
    tmp_path, monkeypatch
):
    (tmp_path / "reach_probe_module.py").write_text(
        textwrap.dedent(
            """
            def built_at_import():
                return 1


            def never_called():
                return 2


            TABLE = built_at_import()
            """
        ),
        encoding="utf-8",
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, "reach_probe_module", raising=False)
    recorder = reachability.Recorder()

    def body() -> None:
        importlib.import_module("reach_probe_module")

    _, _, outcome = recorder.run("import", body)
    sys.modules.pop("reach_probe_module", None)
    assert outcome == "ok"
    names = {code.co_name for code in recorder.entered}
    assert "built_at_import" in names
    assert "never_called" not in names


def test_the_cli_entry_points_import_repro_under_the_hook():
    """``repro``'s own import-time calls (``SMOKE = FULL.smoke()`` in
    ``repro.bench.harness``) run inside the first recorded CLI body, in
    a fresh interpreter where nothing imported ``repro`` before."""
    script = textwrap.dedent(
        f"""
        import importlib.util, sys
        spec = importlib.util.spec_from_file_location(
            "reachability", {str(REPO / "tools" / "reachability.py")!r}
        )
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        assert "repro" not in sys.modules
        recorder = tool.Recorder()
        recorder.run("help", lambda: tool._run_cli(["check", "--help"]))
        print(sorted(c.co_qualname for c in recorder.entered))
        """
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": ""},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert "'ExperimentScale.smoke'" in out.stdout


@pytest.fixture
def fake_src():
    """Two functions of a module outside the groups the tool used to
    enforce, plus an allowlist entry that names nothing."""
    path = str(REPO / "src" / "repro" / "bench" / "fake.py")
    unreached = (path, 1, "unreached")
    ran = (path, 5, "allowlisted_but_ran")
    functions = {
        unreached: "repro.bench.fake.unreached",
        ran: "repro.bench.fake.allowlisted_but_ran",
    }
    allowed = {
        "repro.bench.fake.allowlisted_but_ran": "a reason",
        "repro.bench.fake.gone": "a reason",
    }
    return functions, {ran}, allowed


def test_findings_flag_every_kind_of_problem(fake_src, monkeypatch):
    functions, reached, allowed = fake_src
    monkeypatch.setattr(reachability, "ALLOWED", allowed)
    assert reachability.findings(functions, reached) == [
        "unreached: repro.bench.fake.unreached (src/repro/bench/fake.py:1)",
        "allowlisted but an entry point ran it: "
        "repro.bench.fake.allowlisted_but_ran",
        "allowlisted but no such function: repro.bench.fake.gone",
    ]


def test_findings_are_empty_when_every_function_ran(fake_src, monkeypatch):
    functions, _, _ = fake_src
    monkeypatch.setattr(reachability, "ALLOWED", {})
    assert reachability.findings(functions, set(functions)) == []
