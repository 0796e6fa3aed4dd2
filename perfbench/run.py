#!/usr/bin/env python3
"""The repository benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload serve-mt16g --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
breakdown of a traced run.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line before
it records provenance.  Spans of a traced run, and every result, are
written under ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: Thread-pool variables of the BLAS builds NumPy may load.  The
#: benchmark drives all load from one process on one thread.
BLAS_THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _code_digest(numpy_version: str) -> str:
    """Digest of the program and benchmark sources and NumPy's version.

    Simulated results are recorded per code version, so a change that
    moves placement decisions starts a fresh record instead of failing
    against its parent's.
    """
    digest = hashlib.blake2b(numpy_version.encode(), digest_size=6)
    for tree in ("src", "perfbench"):
        for path in sorted((ROOT / tree).rglob("*.py")):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _check_determinism(key: str, sim: dict[str, float]) -> bool:
    """Compare the simulated results with the first run of this seed.

    The first run of a seed, at the given sizes and code version,
    records its results; every later run, traced or not, must reproduce
    them exactly.
    """
    path = OUT / "sim" / f"{key}.json"
    if path.exists():
        return json.loads(path.read_text()) == sim
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(sim, sort_keys=True) + "\n")
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import numpy

    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](seed=args.seed, seconds=args.seconds)
    code = _code_digest(numpy.__version__)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workload.sizes(),
        "git_rev": _git_rev(),
        "code_digest": code,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        result, tracer = harness.run_traced(workload)
        tracer.dump(OUT / f"spans-{stem}.json", {"provenance": provenance})
    else:
        result = harness.run_untraced(workload)

    sizes = json.dumps(workload.sizes(), sort_keys=True).encode()
    key = f"{stem}-{code}-{hashlib.blake2b(sizes, digest_size=6).hexdigest()}"
    if not _check_determinism(key, result.pop("sim")):
        result["failed"] += 1
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{stem}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": provenance, **line}, indent=1) + "\n"
    )
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
