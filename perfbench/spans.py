"""In-memory span recording for the traced benchmark run.

The benchmark never instruments ``src/``: it wraps the public methods of
the objects it built (and, for the event kernel, the ``SimKernel.run``
method for the duration of the traced run) and records one span per
call.  A span is ``(name, start, end, parent, run, step)``: ``parent`` is
the index of the enclosing span (``-1`` for a root), ``run`` the sub-run
and ``step`` the step or batch id shared by every span of one engine
step within it (``-1`` when the call belongs to no step, e.g. a request
arrival).

Spans stay in a list until the run ends; :meth:`Tracer.dump` writes them
out.  A span's *self time* is its duration minus the time its direct
children cover.  Calls are single-threaded and strictly nested, so the
children of one span never overlap and that is a plain subtraction.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

#: The root span each workload opens around its timed region.  It is
#: the benchmark's own glue, so its self time counts as unattributed.
MEASURE_SPAN = "bench.measure"


class Tracer:
    """Records nested spans and per-span return-value counters."""

    enabled = True

    def __init__(self) -> None:
        # [name, start, end, parent, run, step]; end is None while open.
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: Sub-run and step/batch id stamped on spans opened from now on.
        self.run = 0
        self.step = -1

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        spans, stack = self.spans, self._stack
        index = len(spans)
        parent = stack[-1] if stack else -1
        spans.append([name, time.perf_counter(), None, parent, self.run, self.step])
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            spans[index][2] = time.perf_counter()

    def wrap(
        self,
        owner: object,
        method: str,
        name: str,
        on_call: Callable[..., None] | None = None,
        on_return: Callable[[object], None] | None = None,
    ) -> None:
        """Replace ``owner.method`` with a version that records a span.

        ``on_call(*args, **kwargs)`` runs before the span opens (it may
        set :attr:`step`); ``on_return(result)`` sees each return value,
        which is how counters are taken at the same boundary as the span.
        """
        original = getattr(owner, method)

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            with self.span(name):
                result = original(*args, **kwargs)
            if on_return is not None:
                on_return(result)
            return result

        setattr(owner, method, traced)

    @contextmanager
    def patch_class(
        self,
        cls: type,
        method: str,
        name: str,
        on_return: Callable[[object, object], None] | None = None,
    ) -> Iterator[None]:
        """Wrap ``cls.method`` for every instance until the block exits.

        ``on_return(instance, result)`` sees each call's instance and
        return value.  Used only for objects the program builds out of
        the benchmark's reach (the kernel inside ``simulate_pipeline``).
        """
        original = cls.__dict__[method]
        tracer = self

        def traced(instance, *args, **kwargs):
            with tracer.span(name):
                result = original(instance, *args, **kwargs)
            if on_return is not None:
                on_return(instance, result)
            return result

        setattr(cls, method, traced)
        try:
            yield
        finally:
            setattr(cls, method, original)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def self_times(self) -> dict[str, float]:
        """Total self seconds per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for index, (name, start, end, *_) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time[index]
        return totals

    def dump(self, path: Path, header: dict) -> None:
        """Write every span (times relative to the first) as JSON."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            [name, start - origin, end - origin, parent, run, step]
            for name, start, end, parent, run, step in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = ["name", "start_s", "end_s", "parent", "run", "step"]
        payload = dict(header, columns=columns, spans=rows)
        path.write_text(json.dumps(payload) + "\n")


class NullTracer:
    """The untraced run's stand-in: its spans record nothing.

    It has no ``wrap`` or ``patch_class``: the workloads instrument only
    when :attr:`enabled` is true, so an untraced run calls the program's
    methods unwrapped.
    """

    enabled = False
    run = 0
    step = -1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield
