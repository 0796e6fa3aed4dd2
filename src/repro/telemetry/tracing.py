"""Span tracing with Chrome trace-event export (Perfetto-loadable).

The tracer maps simulated seconds to trace microseconds (``ts = sim_s *
1e6``) and emits the minimal, portable subset of the Chrome trace-event
format:

- ``"X"`` complete events (kernel events as zero-duration markers on a
  per-priority lane, serving batches with their real execute duration),
- ``"B"``/``"E"`` begin/end pairs (the pipeline phase split
  ``schedule`` / ``execute`` / ``commit``, nested inside a ``step[t]``
  span),
- ``"i"`` instants (control-plane decision timeline mirror),
- ``"M"`` metadata (process/thread names so Perfetto labels the lanes).

One :class:`TraceTrack` per simulation kernel (= one trace "process"),
so e.g. ``python -m repro serve`` renders the FlexMoE and Static engines
as two separate process groups. Thread ids partition each track into
lanes: kernel events use their :class:`~repro.sim.kernel.Priority`
integer as the tid, and the fixed lanes below carry pipeline phases,
serving batches and control-plane decisions. Pipeline phase spans are
only ever written by the owning source, so B/E stack discipline per
``(pid, tid)`` is guaranteed by construction (and asserted by tests).

A :class:`~repro.sim.kernel.SimKernel` given a track records every
processed event on it (:meth:`TraceTrack.kernel_event`): the kernel's
one trace path, and the ``(time, priority, seq, label)`` log the
determinism tests compare.
"""

from __future__ import annotations

#: Fixed thread lanes inside a kernel track. Kernel event lanes use the
#: event priority (0..50) as the tid, so these start above that range.
TID_CONTROL = 80  #: control-plane decision timeline instants
TID_PIPELINE = 90  #: pipeline step/phase spans (B/E, properly nested)
TID_SERVING = 100  #: serving batch spans (X with real duration)

#: Human labels for the fixed lanes, emitted as thread_name metadata.
LANE_NAMES = {
    TID_CONTROL: "control-plane",
    TID_PIPELINE: "pipeline-phases",
    TID_SERVING: "serving-batches",
}


def to_trace_us(sim_seconds: float) -> float:
    """Simulated seconds -> Chrome trace microseconds."""
    return float(sim_seconds) * 1e6


class TraceTrack:
    """One trace process (= one simulation kernel). Appends event dicts
    to the owning :class:`SpanTracer` buffer; all methods are cheap
    enough to call per kernel event when tracing is enabled."""

    __slots__ = ("pid", "_events")

    def __init__(self, pid: int, events: list[dict]) -> None:
        self.pid = pid
        self._events = events

    # -- metadata ------------------------------------------------------
    def process_name(self, name: str) -> None:
        self._events.append(
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0.0,
                "pid": self.pid,
                "tid": 0,
                "args": {"name": name},
            }
        )

    def thread_name(self, tid: int, name: str) -> None:
        self._events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "ts": 0.0,
                "pid": self.pid,
                "tid": int(tid),
                "args": {"name": name},
            }
        )

    # -- spans ---------------------------------------------------------
    def kernel_event(
        self, time: float, priority: int, seq: int, label: str | None
    ) -> None:
        """A processed kernel event, as a zero-duration complete event on
        the lane of its priority."""
        self._events.append(
            {
                "name": label if label is not None else "event",
                "cat": "kernel",
                "ph": "X",
                "ts": to_trace_us(time),
                "dur": 0.0,
                "pid": self.pid,
                "tid": int(priority),
                "args": {"seq": int(seq)},
            }
        )

    def begin(
        self,
        name: str,
        sim_time: float,
        tid: int,
        cat: str = "phase",
        args: dict | None = None,
    ) -> None:
        event = {
            "name": name,
            "cat": cat,
            "ph": "B",
            "ts": to_trace_us(sim_time),
            "pid": self.pid,
            "tid": int(tid),
        }
        if args:
            event["args"] = args
        self._events.append(event)

    def end(
        self, name: str, sim_time: float, tid: int, cat: str = "phase"
    ) -> None:
        self._events.append(
            {
                "name": name,
                "cat": cat,
                "ph": "E",
                "ts": to_trace_us(sim_time),
                "pid": self.pid,
                "tid": int(tid),
            }
        )

    def complete(
        self,
        name: str,
        sim_time: float,
        duration: float,
        tid: int,
        cat: str = "span",
        args: dict | None = None,
    ) -> None:
        event = {
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": to_trace_us(sim_time),
            "dur": to_trace_us(duration),
            "pid": self.pid,
            "tid": int(tid),
        }
        if args:
            event["args"] = args
        self._events.append(event)

    def instant(
        self,
        name: str,
        sim_time: float,
        tid: int = TID_CONTROL,
        cat: str = "decision",
        args: dict | None = None,
    ) -> None:
        event = {
            "name": name,
            "cat": cat,
            "ph": "i",
            "ts": to_trace_us(sim_time),
            "pid": self.pid,
            "tid": int(tid),
            "s": "t",  # thread-scoped instant
        }
        if args:
            event["args"] = args
        self._events.append(event)


class SpanTracer:
    """Buffer of Chrome trace events across all kernels of a session."""

    def __init__(self) -> None:
        self._events: list[dict] = []
        self._next_pid = 1

    def new_track(self, name: str) -> TraceTrack:
        """Open a new trace process (one per simulation kernel)."""
        track = TraceTrack(self._next_pid, self._events)
        self._next_pid += 1
        track.process_name(name)
        for tid, lane in sorted(LANE_NAMES.items()):
            track.thread_name(tid, lane)
        return track

    @property
    def events(self) -> list[dict]:
        return self._events

    def __len__(self) -> int:
        return len(self._events)

