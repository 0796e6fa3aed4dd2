"""Gate flow-control: autonomous global traffic smoothing.

Section 3.1 mentions "a gate flow-control mechanism is introduced to enable
autonomous global traffic optimization". Unlike expert capacity — which
*drops* tokens beyond the limit — flow control *defers* excess tokens: when
an expert's instantaneous demand exceeds a watermark derived from the
resources it currently owns, the overflow is buffered and re-injected on the
next step, after the Scheduler has had a chance to expand the expert.

Deferral preserves 100% token efficiency (every token is eventually
processed by its chosen expert) while clipping transient spikes the
placement cannot absorb yet.
"""

from __future__ import annotations

import numpy as np

from repro.core.placement import Placement
from repro.exceptions import RoutingError


class GateFlowController:
    """Per-expert traffic watermarking with deferred re-injection.

    Args:
        watermark_factor: Multiple of an expert's fair processing share
            tolerated before deferral kicks in. ``inf`` disables flow
            control.
        max_backlog_steps: Emergency valve — if a token has been deferred
            this many times it is released regardless of the watermark so
            the backlog cannot grow without bound.
    """

    def __init__(
        self,
        watermark_factor: float = 2.0,
        max_backlog_steps: int = 4,
    ) -> None:
        if watermark_factor <= 0:
            raise RoutingError("watermark_factor must be > 0")
        if max_backlog_steps < 1:
            raise RoutingError("max_backlog_steps must be >= 1")
        self._watermark_factor = watermark_factor
        self._max_backlog_steps = max_backlog_steps
        self._backlog: np.ndarray | None = None  # (experts, gpus)
        self._backlog_age = 0

    @property
    def backlog_tokens(self) -> int:
        """Tokens currently waiting for re-injection."""
        if self._backlog is None:
            return 0
        return int(self._backlog.sum())

    def watermarks(self, assignment: np.ndarray, placement: Placement) -> np.ndarray:
        """Per-expert admission limits for this step.

        An expert owning ``n_e`` of the cluster's ``total_slots`` vExperts
        is entitled to an ``n_e / total_slots`` share of the step's tokens;
        the watermark tolerates ``watermark_factor`` times that share.
        """
        total_tokens = int(np.asarray(assignment).sum()) + self.backlog_tokens
        fair_share = total_tokens / placement.total_slots
        replicas = placement.replica_counts()
        limits = self._watermark_factor * fair_share * replicas
        return np.maximum(np.ceil(limits).astype(np.int64), 1)

    def admit(self, assignment: np.ndarray, placement: Placement) -> np.ndarray:
        """Filter one step's assignment through the flow controller.

        Args:
            assignment: Raw gate output ``I`` of shape ``(experts, gpus)``.
            placement: Current placement (sets the watermarks).

        Returns:
            The admitted assignment, including any re-injected backlog;
            same shape as ``assignment``.
        """
        assignment = np.asarray(assignment).astype(np.int64, copy=True)
        if assignment.ndim != 2:
            raise RoutingError("assignment must be (experts, gpus)")
        if self._backlog is not None:
            if self._backlog.shape != assignment.shape:
                raise RoutingError("assignment shape changed mid-stream")
            assignment += self._backlog
            self._backlog = None

        if not np.isfinite(self._watermark_factor):
            return assignment
        if self._backlog_age >= self._max_backlog_steps:
            self._backlog_age = 0
            return assignment

        limits = self.watermarks(assignment, placement)
        expert_totals = assignment.sum(axis=1)
        overflow = np.maximum(expert_totals - limits, 0)
        if not overflow.any():
            self._backlog_age = 0
            return assignment

        deferred = np.zeros_like(assignment)
        for expert in np.flatnonzero(overflow):
            deferred[expert] = self._defer_proportionally(
                assignment[expert], int(overflow[expert])
            )
        self._backlog = deferred
        self._backlog_age += 1
        return assignment - deferred

    @staticmethod
    def _defer_proportionally(row: np.ndarray, overflow: int) -> np.ndarray:
        """Defer ``overflow`` tokens from ``row`` proportionally per GPU."""
        total = int(row.sum())
        if total == 0 or overflow == 0:
            return np.zeros_like(row)
        exact = overflow * row / total
        deferred = np.floor(exact).astype(np.int64)
        leftover = overflow - int(deferred.sum())
        slack = row - deferred
        order = np.argsort(-(exact - deferred), kind="stable")
        for idx in order:
            if leftover == 0:
                break
            if slack[idx] > 0:
                deferred[idx] += 1
                slack[idx] -= 1
                leftover -= 1
        return deferred
