"""The host's pace, read from fixed reference kernels.

The shared hosts this benchmark runs on go through slow spells of 25-80%
that last from seconds to minutes, often longer than a run, and not
every spell slows every kind of work alike: some slow interpreter-bound
code most, others work that streams large arrays.

So a run times the kernels its workload follows before its first
set-up and after every set-up + measure cycle.  The harness paces each
cycle by the timings just before and just after it: it divides the
workload's share of the slowdown (the product of ``slowdown ** power``
over the workload's ``host_sensitivity``) out of that cycle's host
seconds.  The kernels are the benchmark's own code, never the
program's, so a change to the program moves the paced figures exactly
as it moves the raw ones.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

import numpy as np

_rng = np.random.default_rng(0)
_SMALL = _rng.random((1024, 256))
_SMALL_INDEX = _rng.integers(0, 256, 50_000)
# Placement-sized (devices x experts), too large for the caches.
_LARGE = _rng.random((4096, 512))
_LARGE_INDEX = _rng.integers(0, 512, 200_000)


def _interpreter_kernel() -> float:
    """Dict and list traffic plus small NumPy calls (serve-mt16g's kind)."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(120_000):
        key = i % 613
        table[key] = table.get(key, 0) + i
    ordered = sorted(table.items(), key=lambda item: item[1])
    pairs = [[key, value] for key, value in ordered]
    pairs.reverse()
    for _ in range(4):
        order = np.argsort(_SMALL.sum(axis=0))
        _SMALL[:, order[:32]].T @ _SMALL
        np.bincount(_SMALL_INDEX, minlength=256)
        np.where(_SMALL > 0.5, _SMALL, 0.0).max(axis=1)
    return time.perf_counter() - start


def _array_kernel() -> float:
    """Reductions, a partial sort and a histogram over a large matrix."""
    start = time.perf_counter()
    for _ in range(2):
        _LARGE.sum(axis=0)
        np.argsort(_LARGE[:, :8], axis=0)
        np.bincount(_LARGE_INDEX, minlength=512)
        (_LARGE > 0.5).sum()
        _LARGE.max(axis=1)
    return time.perf_counter() - start


#: Kernel name -> (kernel, seconds it takes on a 2-core x86 host at its
#: usual speed).  A scaled figure reads as if the host had run at that
#: speed.
KERNELS: dict[str, tuple[Callable[[], float], float]] = {
    "interpreter": (_interpreter_kernel, 0.025),
    "arrays": (_array_kernel, 0.018),
}


def reference_times(names, count: int = 3) -> dict[str, list[float]]:
    """``count`` timings of each named reference kernel, in seconds."""
    return {name: [KERNELS[name][0]() for _ in range(count)] for name in names}


def slowdown(
    marks: list[dict[str, list[float]]], sensitivity: dict[str, float]
) -> float:
    """How much a workload's host seconds stretched between some marks.

    ``marks`` are :func:`reference_times` results taken around the work,
    usually just before and just after it.  Each kernel's median timing
    over its usual time is 1.0 at the usual speed and 1.5 on a host
    running it 50% slow.  ``sensitivity`` maps a kernel to the power of
    its slowdown the workload feels.  The median ignores the blips of a
    few milliseconds that any single timing may catch.
    """
    factor = 1.0
    for name, power in sensitivity.items():
        times = [t for mark in marks for t in mark[name]]
        factor *= (statistics.median(times) / KERNELS[name][1]) ** power
    return factor
