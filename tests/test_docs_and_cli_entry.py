"""Docs conventions and README quickstart drift, as a tier-1 guard.

CI runs ``tools/check_docs.py`` standalone; this test keeps the same
guarantees inside the tier-1 suite so drift is caught locally too.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_encoding_conventions():
    check = load_check_docs()
    problems = []
    for path in check.doc_paths():
        problems.extend(check.check_encoding(path))
    assert problems == []


def test_readme_quickstart_runs():
    check = load_check_docs()
    assert check.check_quickstart(REPO / "README.md") == []


def test_config_field_check_names_a_missing_field(tmp_path):
    check = load_check_docs()
    fields = check.scheduler_config_fields()
    assert {"min_replicas", "placement_search"} <= fields
    doc = tmp_path / "stale.md"
    doc.write_text(
        "Set `SchedulerConfig.min_replicas`, or pass\n"
        "`SchedulerConfig(placement_search=\"flat\", no_such_knob=False)`;\n"
        "`SchedulerConfig.retired_flag` is gone.\n"
    )
    problems = check.check_config_fields(doc, fields)
    assert len(problems) == 2
    assert "SchedulerConfig.no_such_knob" in problems[0]
    assert "SchedulerConfig.retired_flag" in problems[1]


def test_call_keyword_check_names_a_deleted_parameter(tmp_path):
    """Check 6 covers any public callable of the API modules, not just
    SchedulerConfig: a doc still passing a deleted keyword fails."""
    check = load_check_docs()
    keywords = check.public_keywords()
    fields = keywords["SchedulerConfig"][1]
    doc = tmp_path / "stale.md"
    doc.write_text(
        "Time it against `simulate_pipeline(kernel=False)`, or serve with\n"
        "`ServingEngine(engine, requests, batching, slo, tenants=None)`;\n"
        "`Scenario(name=\"x\", sources=(a, b), duration=5.0)` runs.\n"
    )
    problems = check.check_config_fields(doc, fields, keywords)
    assert len(problems) == 1
    assert "simulate_pipeline.kernel" in problems[0]
    assert "repro.training.loop.simulate_pipeline" in problems[0]


def test_docs_name_only_live_config_fields():
    assert load_check_docs().check_docs_config_fields() == []


def test_cli_command_check_names_a_stale_command():
    """Check 7 parses documented command lines from code, not prose or
    CI job names: a renamed flag fails, alternatives and optional
    flags expand."""
    check = load_check_docs()
    doc = (
        "Run `python -m repro perf|scale [--smoke]`, or\n"
        "```sh\n"
        "python -m repro serve --multi-tenant \\\n"
        "  --smoke          # CI\n"
        "python -m repro serve --no-such-flag\n"
        "```\n"
        "then `python -m repro\ncheck BENCH_scale.json`; prose such as\n"
        "python -m repro bogus is not a command.\n"
    )
    workflow = (
        "jobs:\n"
        "  smoke:\n"
        "    name: smoke (python -m repro nope)\n"
        "    steps:\n"
        "      - run: python -m repro scale --smoke\n"
        "      - name: churn\n"
        "        run: |\n"
        "          python -m repro churn --fast | tail -n 1\n"
    )
    sources = {
        "doc.md": check.markdown_code(doc),
        "ci.yml": check.ci_run_steps(workflow),
    }
    commands = [
        argv for snippets in sources.values()
        for code in snippets for argv in check.repro_commands(code)
    ]
    assert ["perf", "--smoke"] in commands
    assert ["scale", "--smoke"] in commands
    assert ["serve", "--multi-tenant", "--smoke"] in commands
    assert ["check", "BENCH_scale.json"] in commands
    problems = check.check_cli_commands(sources)
    assert len(problems) == 2
    assert "--no-such-flag" in problems[0]
    assert "--fast" in problems[1]


def test_documented_cli_commands_parse():
    check = load_check_docs()
    assert check.check_cli_commands(check.documented_cli_commands()) == []


def test_class_attr_check_names_a_stale_attribute(tmp_path):
    """Check 8 resolves inline ``Class.attr`` against the classes the
    packages export: methods, dataclass fields and ``self.`` attributes
    count; a deleted method fails, fenced blocks and unexported names
    are not checked."""
    check = load_check_docs()
    classes = check.exported_classes()
    doc = tmp_path / "stale.md"
    doc.write_text(
        "Call `Placement.replica_counts()`, read `StepTiming.a2a_time`\n"
        "and `MemoizedStepCost.hits`; `Placement.begin_trial` is gone.\n"
        "```python\n"
        "Placement.not_checked_in_a_block()\n"
        "```\n"
        "`NotExported.anything` and `x = Placement.copy(p)`, but not\n"
        "`LayerPipeline.adjustment_queue`.\n"
    )
    assert check.check_class_attrs(doc, classes) == [
        "stale.md:2: names `Placement.begin_trial`, which is not an "
        "attribute of repro.core.Placement",
        "stale.md:7: names `LayerPipeline.adjustment_queue`, which is not "
        "an attribute of repro.runtime.LayerPipeline",
    ]


def test_docs_name_only_live_class_attributes():
    assert load_check_docs().check_docs_class_attrs() == []


def test_script_path_check_names_a_deleted_script(tmp_path):
    """Check 9: script paths under benchmarks/, examples/ and tools/, and
    bare ``bench_*.py`` names, must exist; globs and longer paths that
    merely end in such a name are not checked."""
    check = load_check_docs()
    doc = tmp_path / "stale.md"
    doc.write_text(
        "Run `python tools/check_docs.py` and examples/quickstart.py;\n"
        "| `bench_fig2_balance_loss.py` | Figure 2 |\n"
        "| `bench_retired.py` | gone |\n"
        "Every benchmarks/bench_*.py script, src/repro/tools/x.py and\n"
        "`benchmarks/bench_gone.py`, `examples/missing.py` too.\n"
    )
    assert check.check_script_paths(doc) == [
        "stale.md:3: names bench_retired.py, but "
        "benchmarks/bench_retired.py does not exist",
        "stale.md:5: names benchmarks/bench_gone.py, but "
        "benchmarks/bench_gone.py does not exist",
        "stale.md:5: names examples/missing.py, but "
        "examples/missing.py does not exist",
    ]


def test_docs_name_only_live_scripts():
    assert load_check_docs().check_docs_script_paths() == []


def test_docstring_ref_check_names_a_missing_target(tmp_path, monkeypatch):
    """Check 10: a cross-reference role resolves by import, in its
    module, on a class there or as a builtin; ``:attr:`` is not
    checked."""
    check = load_check_docs()
    probe = tmp_path / "xref_probe.py"
    probe.write_text(
        '"""Probe: :class:`Probe`, :meth:`Probe.run`, :meth:`run`,\n'
        ":func:`~repro.sim.scenario.smoke_scale`, :exc:`ValueError` and\n"
        ":mod:`repro.sim` resolve; :meth:`Probe.gone` does not.\n"
        '"""\n'
        "\n"
        "\n"
        "class Probe:\n"
        '    """Runs; see :func:`retired_helper` and :attr:`anything`."""\n'
        "\n"
        "    def run(self):\n"
        '        """:class:`title <Probe>` resolves, :mod:`repro.gone` not."""\n'
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    assert check.check_docstring_refs(probe, "xref_probe") == [
        "xref_probe.py:3: :meth:`Probe.gone` names nothing importable, "
        "in xref_probe or on a class there",
        "xref_probe.py:8: :func:`retired_helper` names nothing importable, "
        "in xref_probe or on a class there",
        "xref_probe.py:11: :mod:`repro.gone` names nothing importable, "
        "in xref_probe or on a class there",
    ]


def test_src_docstrings_name_only_live_objects():
    assert load_check_docs().check_src_docstring_refs() == []


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "--help"],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0
    for command in ("run", "bench", "compare"):
        assert command in result.stdout
