#!/usr/bin/env python3
"""Docs checks: encoding conventions + README quickstart + module drift.

Ten guarantees, all enforced in CI (see CONTRIBUTING.md):

1. User-facing docs (README.md, CONTRIBUTING.md, docs/*.md) are valid
   UTF-8 and free of mojibake-prone characters: smart quotes, curly
   apostrophes, em/en dashes, non-breaking spaces and the U+FFFD
   replacement character. SNIPPETS.md and PAPERS.md are quarantined
   scratch references and deliberately NOT checked.
2. The README quickstart snippet (fenced python blocks between the
   ``<!-- quickstart:begin -->`` / ``<!-- quickstart:end -->`` markers)
   actually runs against the current API.
3. The docs and the package tree stay in sync: every ``repro.*`` module
   referenced by README.md or any docs/*.md (architecture.md,
   simulation.md, serving.md, ...) must exist under ``src/repro/``, and
   every top-level module/subpackage of ``src/repro/`` must be mentioned
   in docs/architecture.md's package map (so new subsystems -- e.g.
   ``src/repro/sim/`` -- cannot land undocumented and deleted ones
   cannot haunt the docs). Subsystems with a dedicated doc get the same
   per-module sync: every module of ``src/repro/telemetry/`` must be
   mentioned in docs/observability.md.
4. Repo hygiene: no ``__pycache__`` directory or compiled-bytecode file
   (``*.pyc`` / ``*.pyo``) is tracked by git, so they can never be
   (re-)committed (``.gitignore`` keeps them out of the index;
   ``tests/test_repo_hygiene.py`` asserts the same from the tier-1
   suite).
5. Every benchmark report (``BENCH_*.json``) -- tracked artifacts AND
   report names referenced by the source tree (harness constants, CLI
   defaults) -- is referenced by README.md or some docs/*.md, so a
   CI-gated artifact (e.g. ``BENCH_multitenant.json``,
   ``BENCH_autoscale_churn.json``) cannot land without the doc
   explaining what gates it.
6. Docs name only live options: every ``SchedulerConfig.<field>`` in
   README.md, docs/*.md and the verify skill
   (``.claude/skills/verify/SKILL.md``) is a dataclass field of
   :class:`repro.config.SchedulerConfig`, and every ``Name(...kw=...)``
   call there, where ``Name`` is a public callable exported by
   ``repro``, ``repro.sim``, ``repro.serving`` or
   ``repro.training.loop``, passes only keywords in that callable's
   signature (dataclass fields count), so a deleted option cannot
   linger in the instructions.
7. Docs name only live commands: every ``python -m repro ...`` command
   line in the fenced code blocks and inline code of README.md,
   CONTRIBUTING.md, docs/*.md and the verify skill, and in the ``run:``
   steps of ``.github/workflows/ci.yml``, parses with
   :func:`repro.cli.build_parser`. A ``|``-separated subcommand is each
   of its alternatives and ``[...]`` marks an optional flag that counts
   as given, so ``perf|scale [--smoke]`` checks ``perf --smoke`` and
   ``scale --smoke``. A bare ``python -m repro`` names the entry point,
   and a bare ``python -m repro check`` the command, which must exist.
   Prose and CI job names are not checked.
8. Docs name only live attributes: every ``Class.attr`` in the inline
   code of README.md, CONTRIBUTING.md, docs/*.md and the verify skill,
   where ``Class`` is a public class exported (``__all__``) by a
   ``repro`` package, resolves: ``attr`` is a class attribute (method,
   property, constant), a dataclass field, or an instance attribute the
   class (or a ``repro`` base) sets as ``self.attr``. A deleted method
   such as a retired ``Placement`` API cannot linger in the docs.
9. Docs name only live scripts: every ``benchmarks/``, ``examples/`` or
   ``tools/`` script path (``*.py``) named anywhere in README.md,
   CONTRIBUTING.md, docs/*.md or the verify skill exists in the repo.
   A bare ``bench_*.py`` name, as in docs/paper_mapping.md's table,
   resolves under ``benchmarks/``. Glob patterns such as
   ``benchmarks/bench_*.py`` are not names and are not checked, so a
   deleted benchmark script cannot linger in the docs.
10. Docstrings name only live objects: every ``:func:``, ``:meth:``,
    ``:class:``, ``:mod:`` or ``:exc:`` cross-reference in a docstring
    under ``src/repro/`` resolves, a leading ``~`` or ``.`` aside. The
    target is an importable object (``repro.sim.kernel.SimKernel``), a
    name in the docstring's module (``SimKernel``, ``SimKernel.run``)
    or an attribute of a class defined there (a bare ``run``), or a
    builtin. ``:attr:`` and ``:data:`` are not checked: instance
    attributes do not resolve by import. A renamed method cannot
    linger in the docstrings that point readers at it.

Exit status 0 on success, 1 with a report on any failure.
"""

from __future__ import annotations

import argparse
import ast
import builtins
import contextlib
import dataclasses
import importlib
import inspect
import io
import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: User-facing docs subject to the encoding conventions.
DOC_FILES = ("README.md", "CONTRIBUTING.md")
DOC_GLOBS = ("docs/*.md",)

#: Characters that betray copy-paste from rendered PDFs / word processors.
FORBIDDEN = {
    "‘": "left smart quote",
    "’": "right smart quote / curly apostrophe",
    "“": "left smart double quote",
    "”": "right smart double quote",
    "–": "en dash",
    "—": "em dash",
    " ": "non-breaking space",
    "�": "replacement character (mojibake)",
}

QUICKSTART_RE = re.compile(
    r"<!-- quickstart:begin -->(.*?)<!-- quickstart:end -->", re.DOTALL
)
CODE_BLOCK_RE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def doc_paths() -> list[Path]:
    paths = [REPO / name for name in DOC_FILES]
    for pattern in DOC_GLOBS:
        paths.extend(sorted(REPO.glob(pattern)))
    return [p for p in paths if p.exists()]


def check_encoding(path: Path) -> list[str]:
    problems = []
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        return [f"{path.name}: not valid UTF-8 ({exc})"]
    for lineno, line in enumerate(text.splitlines(), start=1):
        for char, label in FORBIDDEN.items():
            if char in line:
                problems.append(
                    f"{path.name}:{lineno}: {label} (U+{ord(char):04X})"
                )
    return problems


def check_quickstart(readme: Path) -> list[str]:
    text = readme.read_text(encoding="utf-8")
    region = QUICKSTART_RE.search(text)
    if region is None:
        return ["README.md: quickstart markers not found"]
    blocks = CODE_BLOCK_RE.findall(region.group(1))
    if not blocks:
        return ["README.md: no python code block inside quickstart markers"]
    sys.path.insert(0, str(REPO / "src"))
    for index, block in enumerate(blocks):
        try:
            exec(compile(block, f"<quickstart block {index}>", "exec"), {})
        except Exception as exc:  # drifted API, typo, anything
            return [
                f"README.md quickstart block {index} failed to run: "
                f"{type(exc).__name__}: {exc}"
            ]
    return []


#: Dotted module references in docs; lowercase segments only, so class
#: and function names (``repro.baselines.FlexMoESystem``) naturally
#: terminate the match at their containing module.
MODULE_REF_RE = re.compile(r"\brepro(?:\.[a-z_][a-z0-9_]*)+")


def _module_exists(parts: list[str]) -> bool:
    """Whether ``repro.<parts>`` resolves to a package, module, or a
    lowercase attribute of one (e.g. ``repro.bench.harness.faults_run``)."""
    path = REPO / "src" / "repro"
    for part in parts:
        package = path / part
        if (package / "__init__.py").exists():
            path = package
            continue
        # A module file ends the walk; deeper parts are attributes.
        return (path / f"{part}.py").exists()
    return True


def check_module_refs(path: Path) -> list[str]:
    """Every ``repro.*`` reference in ``path`` resolves under src/repro/."""
    problems = []
    text = path.read_text(encoding="utf-8")
    for ref in sorted(set(MODULE_REF_RE.findall(text))):
        if not _module_exists(ref.split(".")[1:]):
            problems.append(
                f"{path.name}: references {ref}, which does not exist "
                "under src/repro/"
            )
    return problems


def check_module_sync(arch: Path) -> list[str]:
    """Two-way sync between docs/architecture.md and src/repro/."""
    if not arch.exists():
        return [f"{arch.name}: missing (expected at docs/architecture.md)"]
    text = arch.read_text(encoding="utf-8")
    problems = check_module_refs(arch)
    src = REPO / "src" / "repro"
    for child in sorted(src.iterdir()):
        if child.name.startswith("_"):
            continue  # __init__, __main__, __pycache__
        if child.is_dir() and not (child / "__init__.py").exists():
            continue
        if not child.is_dir() and child.suffix != ".py":
            continue
        name = child.name if child.is_dir() else child.stem
        if f"repro.{name}" not in text:
            problems.append(
                f"{arch.name}: top-level module src/repro/{child.name} is "
                f"not documented (mention repro.{name})"
            )
    return problems


def check_subsystem_doc_sync(
    package: str, doc: Path
) -> list[str]:
    """Every module of ``src/repro/<package>/`` is referenced in ``doc``.

    The per-subsystem analogue of :func:`check_module_sync`: a new
    module inside an instrumented subpackage (e.g.
    ``src/repro/telemetry/``) cannot land without its dedicated doc
    (``docs/observability.md``) mentioning ``repro.<package>.<module>``.
    """
    if not doc.exists():
        return [f"{doc.name}: missing (expected at docs/{doc.name})"]
    text = doc.read_text(encoding="utf-8")
    problems = []
    src = REPO / "src" / "repro" / package
    for child in sorted(src.glob("*.py")):
        if child.name.startswith("_"):
            continue  # __init__
        ref = f"repro.{package}.{child.stem}"
        if ref not in text:
            problems.append(
                f"{doc.name}: module src/repro/{package}/{child.name} is "
                f"not documented (mention {ref})"
            )
    return problems


def check_no_tracked_bytecode() -> list[str]:
    """No ``__pycache__`` directory or ``*.pyc``/``*.pyo`` file is tracked.

    Uses ``git ls-files`` (the *index*, not the working tree: local
    bytecode is expected and gitignored). Skips silently when git or the
    repository is unavailable (e.g. a source tarball).
    """
    try:
        listed = subprocess.run(
            ["git", "ls-files"],
            cwd=REPO,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return []
    if listed.returncode != 0:
        return []
    offenders = [
        line
        for line in listed.stdout.splitlines()
        if "__pycache__" in line or line.endswith((".pyc", ".pyo"))
    ]
    return [
        f"tracked bytecode artifact: {path} (remove it with "
        "`git rm --cached` -- .gitignore already excludes it)"
        for path in offenders
    ]


#: Benchmark-report filenames as they appear in code and docs.
BENCH_NAME_RE = re.compile(r"\bBENCH_[A-Za-z0-9_]+\.json\b")


def _source_bench_reports() -> set[str]:
    """Every ``BENCH_*.json`` name the source tree can emit.

    Sweeps ``src/repro/`` for report-filename literals (the
    ``*_REPORT_FILENAME`` constants and CLI defaults all spell the name
    out), so a new harness cannot introduce a report the docs never
    mention -- even before its first artifact is committed.
    """
    names: set[str] = set()
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        names.update(BENCH_NAME_RE.findall(path.read_text(encoding="utf-8")))
    return names


def check_bench_reports_documented() -> list[str]:
    """Every benchmark report is referenced by README or docs/*.md.

    Covers two report populations: tracked ``BENCH_*.json`` artifacts (a
    committed artifact is a CI contract) and report names referenced by
    the source tree (``repro.bench`` harnesses / CLI defaults, e.g.
    ``BENCH_autoscale_churn.json``), so a harness cannot land without
    the doc explaining what its ``ok`` marker gates. Git-unavailable
    environments (source tarballs) still check the source population.
    """
    reports = _source_bench_reports()
    try:
        listed = subprocess.run(
            ["git", "ls-files", "BENCH_*.json"],
            cwd=REPO,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        listed = None
    if listed is not None and listed.returncode == 0:
        reports.update(
            line for line in listed.stdout.splitlines() if line
        )
    if not reports:
        return []
    corpus = "\n".join(p.read_text(encoding="utf-8") for p in doc_paths())
    return [
        f"benchmark report {name} is not referenced by README.md "
        "or any docs/*.md (document which harness writes it)"
        for name in sorted(reports)
        if name not in corpus
    ]


#: Modules whose public callables check 6 holds doc calls against.
API_MODULES = ("repro", "repro.sim", "repro.serving", "repro.training.loop")

#: ``SchedulerConfig.<name>``, and ``Name(<args>)`` with at most one
#: level of nested parentheses inside the argument list.
CONFIG_ATTR_RE = re.compile(r"\bSchedulerConfig\.([A-Za-z_]\w*)")
CALL_RE = re.compile(r"(?<!\w)([A-Za-z_]\w*)\(((?:[^()]|\([^()]*\))*)\)")
NESTED_CALL_RE = re.compile(r"\([^()]*\)")
KEYWORD_RE = re.compile(r"(?<![\w.])([A-Za-z_]\w*)\s*=(?!=)")

#: The verify skill's build-and-run notes, checked for stale fields too.
VERIFY_SKILL = REPO / ".claude" / "skills" / "verify" / "SKILL.md"


def _accepted_keywords(obj) -> set[str] | None:
    """Keyword names ``obj`` accepts; ``None`` when it takes ``**kwargs``."""
    try:
        parameters = inspect.signature(obj).parameters.values()
    except (TypeError, ValueError):
        return None
    if any(p.kind is p.VAR_KEYWORD for p in parameters):
        return None
    names = {p.name for p in parameters if p.kind is not p.VAR_POSITIONAL}
    if dataclasses.is_dataclass(obj):
        names.update(field.name for field in dataclasses.fields(obj))
    return names


def public_keywords() -> dict[str, tuple[str, set[str] | None]]:
    """``name -> (module, accepted keywords)`` of every public callable
    exported by :data:`API_MODULES` (``__all__``, or the module's own
    public definitions when it has none)."""
    sys.path.insert(0, str(REPO / "src"))
    table: dict[str, tuple[str, set[str] | None]] = {}
    for module_name in API_MODULES:
        module = importlib.import_module(module_name)
        names = getattr(module, "__all__", None) or [
            name for name, obj in vars(module).items()
            if not name.startswith("_")
            and getattr(obj, "__module__", None) == module_name
        ]
        for name in names:
            obj = getattr(module, name)
            if callable(obj) and name not in table:
                table[name] = (module_name, _accepted_keywords(obj))
    return table


def scheduler_config_fields() -> set[str]:
    return public_keywords()["SchedulerConfig"][1]


def check_config_fields(
    path: Path,
    fields: set[str],
    keywords: dict[str, tuple[str, set[str] | None]] | None = None,
) -> list[str]:
    """Every ``SchedulerConfig`` field and every public-callable keyword
    ``path`` names is live: ``fields`` are SchedulerConfig's, and
    ``keywords`` (default :func:`public_keywords`) the callables'."""
    table = dict(public_keywords() if keywords is None else keywords)
    table["SchedulerConfig"] = ("repro", fields)
    text = path.read_text(encoding="utf-8")
    named = {("SchedulerConfig", f) for f in CONFIG_ATTR_RE.findall(text)}
    for name, args in CALL_RE.findall(text):
        if name in table:
            flat = NESTED_CALL_RE.sub("()", args)
            named.update((name, kw) for kw in KEYWORD_RE.findall(flat))
    problems = []
    for name, keyword in sorted(named):
        module, accepted = table[name]
        if accepted is not None and keyword not in accepted:
            problems.append(
                f"{path.name}: names {name}.{keyword}, which is not a "
                f"parameter or field of {module}.{name}"
            )
    return problems


def check_docs_config_fields() -> list[str]:
    """:func:`check_config_fields` over the docs and the verify skill."""
    keywords = public_keywords()
    fields = keywords["SchedulerConfig"][1]
    problems = []
    for path in [*doc_paths(), VERIFY_SKILL]:
        if path.exists():
            problems.extend(check_config_fields(path, fields, keywords))
    return problems


#: A documented command line: what follows the module name on its line.
REPRO_COMMAND_RE = re.compile(r"python -m repro\b([^\n]*)")
FENCE_RE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)
INLINE_CODE_RE = re.compile(r"`([^`]+)`")
CI_RUN_RE = re.compile(r"^(\s*)(?:- )?run:\s*(.*)$")

#: Shell tokens that end a command line.
SHELL_OPERATORS = {"|", "||", "&&", ";", "&", ">", ">>", "2>&1"}

#: The CI workflow whose ``run:`` steps check 7 reads.
CI_WORKFLOW = REPO / ".github" / "workflows" / "ci.yml"


def markdown_code(text: str) -> list[str]:
    """The fenced blocks and inline code spans of a Markdown text; a
    span's line breaks become spaces, a block's continuations join."""
    blocks = [block.replace("\\\n", " ") for block in FENCE_RE.findall(text)]
    prose = FENCE_RE.sub("", text)
    spans = [
        " ".join(span.split()) for span in INLINE_CODE_RE.findall(prose)
    ]
    return blocks + spans


def ci_run_steps(text: str) -> list[str]:
    """The ``run:`` step bodies of a workflow, one-line or block."""
    steps = []
    lines = text.splitlines()
    for index, line in enumerate(lines):
        match = CI_RUN_RE.match(line)
        if match is None:
            continue
        indent, value = len(match.group(1)), match.group(2)
        if value not in {"|", ">"}:
            steps.append(value)
            continue
        body = []
        for follow in lines[index + 1:]:
            if follow.strip() and len(follow) - len(follow.lstrip()) <= indent:
                break
            body.append(follow)
        steps.append("\n".join(body).replace("\\\n", " "))
    return steps


def repro_commands(code: str) -> list[list[str]]:
    """Each ``python -m repro`` argv in ``code``, its alternatives and
    optional flags expanded (see check 7)."""
    commands = []
    for rest in REPRO_COMMAND_RE.findall(code):
        try:
            tokens = shlex.split(rest, comments=True)
        except ValueError:  # an unbalanced quote in a trailing comment
            tokens = rest.split("#")[0].split()
        end = next(
            (i for i, token in enumerate(tokens) if token in SHELL_OPERATORS),
            len(tokens),
        )
        argv = [token.strip("[]") for token in tokens[:end]]
        if argv:  # a bare ``python -m repro`` names the entry point
            head, *tail = argv
            commands.extend(
                [alternative, *tail] for alternative in head.split("|")
            )
    return commands


def check_cli_commands(sources: dict[str, list[str]]) -> list[str]:
    """Every ``python -m repro`` command in ``sources`` (``name -> code
    snippets``) parses with the CLI's own parser."""
    sys.path.insert(0, str(REPO / "src"))
    from repro.cli import build_parser

    parser = build_parser()
    subcommands = next(
        action.choices for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    problems = []
    for name, snippets in sources.items():
        for code in snippets:
            for argv in repro_commands(code):
                if len(argv) == 1 and argv[0] in subcommands:
                    continue  # names the command, as in "run `... check`"
                try:
                    with contextlib.redirect_stderr(io.StringIO()) as err:
                        parser.parse_args(argv)
                except SystemExit:
                    reason = err.getvalue().strip().splitlines()[-1:]
                    problems.append(
                        f"{name}: `python -m repro {shlex.join(argv)}` does "
                        f"not parse ({' '.join(reason)})"
                    )
    return problems


def documented_cli_commands() -> dict[str, list[str]]:
    """Check 7's sources: docs, the verify skill and CI ``run:`` steps."""
    sources = {
        path.name: markdown_code(path.read_text(encoding="utf-8"))
        for path in [*doc_paths(), VERIFY_SKILL]
        if path.exists()
    }
    if CI_WORKFLOW.exists():
        sources[CI_WORKFLOW.name] = ci_run_steps(
            CI_WORKFLOW.read_text(encoding="utf-8")
        )
    return sources


#: ``Class.attr`` inside inline code; a class name starts uppercase.
CLASS_ATTR_RE = re.compile(r"(?<![\w.])([A-Z]\w*)\.([A-Za-z_]\w*)")


def exported_classes() -> dict[str, tuple[str, list[type]]]:
    """``name -> (package, classes)`` of every public class a package
    under ``src/repro/`` exports through ``__all__``."""
    sys.path.insert(0, str(REPO / "src"))
    table: dict[str, tuple[str, list[type]]] = {}
    for init in sorted((REPO / "src" / "repro").rglob("__init__.py")):
        package = ".".join(init.parent.relative_to(REPO / "src").parts)
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name, None)
            if not inspect.isclass(obj):
                continue
            _, classes = table.setdefault(name, (package, []))
            if obj not in classes:
                classes.append(obj)
    return table


def _instance_attributes(cls: type) -> set[str]:
    """Names ``cls`` or any of its ``repro`` bases assigns as
    ``self.<name>``."""
    names: set[str] = set()
    for klass in cls.__mro__:
        if not klass.__module__.startswith("repro"):
            continue
        try:
            source = textwrap.dedent(inspect.getsource(klass))
        except (OSError, TypeError):
            continue
        for node in ast.walk(ast.parse(source)):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                names.add(node.attr)
    return names


def _has_attribute(cls: type, attr: str) -> bool:
    if hasattr(cls, attr):
        return True
    if dataclasses.is_dataclass(cls) and attr in {
        field.name for field in dataclasses.fields(cls)
    }:
        return True
    return attr in _instance_attributes(cls)


def check_class_attrs(
    path: Path, classes: dict[str, tuple[str, list[type]]]
) -> list[str]:
    """Every ``Class.attr`` in ``path``'s inline code resolves (check 8)."""
    text = path.read_text(encoding="utf-8")
    # Blank fenced blocks line for line, so offsets keep their line.
    prose = FENCE_RE.sub(lambda block: "\n" * block.group(0).count("\n"), text)
    problems = []
    for span in INLINE_CODE_RE.finditer(prose):
        for ref in CLASS_ATTR_RE.finditer(span.group(1)):
            name, attr = ref.groups()
            if name not in classes:
                continue
            package, candidates = classes[name]
            if any(_has_attribute(cls, attr) for cls in candidates):
                continue
            lineno = prose.count("\n", 0, span.start(1) + ref.start()) + 1
            problems.append(
                f"{path.name}:{lineno}: names `{name}.{attr}`, which is not "
                f"an attribute of {package}.{name}"
            )
    return problems


def check_docs_class_attrs() -> list[str]:
    """:func:`check_class_attrs` over the docs and the verify skill."""
    classes = exported_classes()
    problems = []
    for path in [*doc_paths(), VERIFY_SKILL]:
        if path.exists():
            problems.extend(check_class_attrs(path, classes))
    return problems


#: A script path under ``benchmarks/``, ``examples/`` or ``tools/``, or
#: a bare benchmark file name; never the tail of a longer path.
SCRIPT_PATH_RE = re.compile(
    r"(?<![\w./-])((?:benchmarks|examples|tools)/[\w./-]*\.py|bench_\w+\.py)"
    r"(?![\w*])"
)


def check_script_paths(path: Path) -> list[str]:
    """Every script path ``path`` names exists (check 9)."""
    problems = []
    text = path.read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        for name in SCRIPT_PATH_RE.findall(line):
            target = name if "/" in name else f"benchmarks/{name}"
            if not (REPO / target).is_file():
                problems.append(
                    f"{path.name}:{lineno}: names {name}, but {target} "
                    "does not exist"
                )
    return problems


def check_docs_script_paths() -> list[str]:
    """:func:`check_script_paths` over the docs and the verify skill."""
    problems = []
    for path in [*doc_paths(), VERIFY_SKILL]:
        if path.exists():
            problems.extend(check_script_paths(path))
    return problems


#: A docstring cross-reference role (check 10); ``:attr:`` and
#: ``:data:`` are left out.
XREF_RE = re.compile(r":(func|meth|class|mod|exc):`([^`]+)`")


def _has_chain(obj, names: list[str]) -> bool:
    for name in names:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def _resolves(target: str, module) -> bool:
    """Whether ``target`` is importable, a name in ``module``, an
    attribute of a class defined there, or a builtin (check 10)."""
    parts = target.split(".")
    for end in range(len(parts), 0, -1):
        try:
            root = importlib.import_module(".".join(parts[:end]))
        except ImportError:
            continue
        if _has_chain(root, parts[end:]):
            return True
    if _has_chain(builtins, parts):
        return True
    if module is None:
        return False
    if _has_chain(module, parts):
        return True
    return any(
        _has_chain(obj, parts)
        for obj in vars(module).values()
        if inspect.isclass(obj) and obj.__module__ == module.__name__
    )


def check_docstring_refs(path: Path, module_name: str) -> list[str]:
    """Every cross-reference role in ``path``'s docstrings resolves
    against ``module_name`` (check 10); a module under ``src/repro/``
    is named by its path there. The ``__main__`` entry point runs on
    import, so its references resolve by import alone."""
    package = REPO / "src" / "repro"
    label = (
        path.relative_to(package).as_posix()
        if path.is_relative_to(package)
        else path.name
    )
    module = (
        None
        if module_name.endswith("__main__")
        else importlib.import_module(module_name)
    )
    tree = ast.parse(path.read_text(encoding="utf-8"))
    problems = []
    for node in ast.walk(tree):
        if not isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            continue
        docstring = ast.get_docstring(node, clean=False)
        if docstring is None:
            continue
        first = node.body[0].lineno
        for ref in XREF_RE.finditer(docstring):
            role, text = ref.groups()
            target = text.split("<")[-1].rstrip(">").strip().lstrip("~.")
            if _resolves(target, module):
                continue
            lineno = first + docstring.count("\n", 0, ref.start())
            problems.append(
                f"{label}:{lineno}: :{role}:`{text}` names nothing "
                f"importable, in {module_name} or on a class there"
            )
    return problems


def check_src_docstring_refs() -> list[str]:
    """:func:`check_docstring_refs` over every module under
    ``src/repro/``."""
    src = REPO / "src"
    sys.path.insert(0, str(src))
    problems = []
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        problems.extend(check_docstring_refs(path, ".".join(parts)))
    return problems


def main() -> int:
    problems: list[str] = []
    for path in doc_paths():
        problems.extend(check_encoding(path))
    problems.extend(check_quickstart(REPO / "README.md"))
    problems.extend(check_module_sync(REPO / "docs" / "architecture.md"))
    arch = REPO / "docs" / "architecture.md"
    for path in doc_paths():
        if path != arch:  # arch already checked (two-way) above
            problems.extend(check_module_refs(path))
    problems.extend(
        check_subsystem_doc_sync(
            "telemetry", REPO / "docs" / "observability.md"
        )
    )
    problems.extend(check_no_tracked_bytecode())
    problems.extend(check_bench_reports_documented())
    problems.extend(check_docs_config_fields())
    problems.extend(check_cli_commands(documented_cli_commands()))
    problems.extend(check_docs_class_attrs())
    problems.extend(check_docs_script_paths())
    problems.extend(check_src_docstring_refs())
    if problems:
        print("docs check FAILED:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(
        f"docs check OK ({len(doc_paths())} files, quickstart ran, "
        "module map in sync, no tracked bytecode, bench reports "
        "documented, doc options, commands, attributes, scripts and "
        "docstring references live)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
