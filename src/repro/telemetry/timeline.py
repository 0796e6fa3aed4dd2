"""Typed control-plane decision timeline.

Every control-plane decision -- trigger firings, Migrate/Expand/Shrink
placements, preemptions, autoscaler scale-up/down, shed waves, failure
and recovery deliveries -- is recorded as a :class:`TimelineEvent` on
the simulation clock, so "why did attainment dip at t=412s" is
answerable from one artifact: sort by time, read the decisions around
the dip.

The timeline is append-only and deterministic (events are emitted from
the seeded simulation in processing order). When the session also
carries a tracer, each event is mirrored as a Chrome ``"i"`` instant on
the control-plane lane of the current kernel track, so the decisions
line up with kernel spans in Perfetto.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Well-known event kinds (open set: subsystems may add more; these are
# the ones the composed scenario and churn benchmarks emit today).
KIND_TRIGGER = "trigger"
KIND_MIGRATE = "migrate"
KIND_EXPAND = "expand"
KIND_SHRINK = "shrink"
KIND_PREEMPT = "preempt"
KIND_SHED = "shed"
KIND_FAIL = "fail"
KIND_RECOVER = "recover"
KIND_SCALE_REQUEST = "scale_request"
KIND_PROVISION = "provision"
KIND_REVOKE = "revoke"
KIND_REVOCATION_NOTICE = "revocation_notice"


@dataclass(frozen=True)
class TimelineEvent:
    """One control-plane decision on the simulation clock."""

    time: float  #: simulated seconds
    kind: str  #: one of the KIND_* constants (open set)
    subject: str  #: what the decision is about (layer, gpu, tenant, ...)
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "time": self.time,
            "kind": self.kind,
            "subject": self.subject,
            "details": dict(sorted(self.details.items())),
        }


class DecisionTimeline:
    """Append-only, time-ordered-as-emitted decision log."""

    def __init__(self) -> None:
        self._events: list[TimelineEvent] = []

    def record(
        self,
        time: float,
        kind: str,
        subject: str,
        **details: object,
    ) -> TimelineEvent:
        event = TimelineEvent(float(time), kind, subject, details)
        self._events.append(event)
        return event

    def __len__(self) -> int:
        return len(self._events)

    def kinds(self) -> dict[str, int]:
        """Histogram of event kinds (insertion order preserved)."""
        counts: dict[str, int] = {}
        for event in self._events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def between(self, start: float, end: float) -> list[TimelineEvent]:
        """Events with ``start <= time <= end`` (outage-window queries)."""
        return [e for e in self._events if start <= e.time <= end]

    def of_kind(self, *kinds: str) -> list[TimelineEvent]:
        wanted = set(kinds)
        return [e for e in self._events if e.kind in wanted]

    def to_dicts(self) -> list[dict]:
        return [event.to_dict() for event in self._events]
