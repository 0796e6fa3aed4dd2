"""Flexible token routing (Algorithm 3 and Section 4).

Given the gate's token assignment ``I[e, g]`` (tokens on source GPU ``g``
destined for expert ``e``) and the current placement, the router decides
which *replica* of each expert processes each token:

1. per-vExpert capacity ``cap_e = ceil(I_e / n_e)`` enforces the vExpert
   contract of even splitting;
2. **locality first** — tokens stay on their source GPU up to the local
   replicas' capacity, avoiding All-to-All traffic entirely;
3. the remainder is scattered to other GPUs **proportionally to their
   available capacity** (largest-remainder apportionment keeps the result
   integral and within capacity).

The output guarantees conservation: every input token is processed by
exactly one replica — FlexMoE's 100% token efficiency.

Two implementations share this contract:

* :class:`FlexibleTokenRouter` — the production router. Everything is
  batched NumPy: locality and capacities are computed for all experts at
  once and each expert's spill is scattered in one proportional
  floor-plus-largest-remainder pass over its whole spill matrix.
* :class:`ReferenceTokenRouter` — the original per-expert / per-source
  greedy loop, kept as the executable specification the vectorized router
  is benchmarked and property-tested against.

The two may place individual spill tokens on different replicas (both
orders are valid under the capacity contract), but they agree on
conservation, capacities, locality, and never exceed per-vExpert capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.placement import Placement
from repro.exceptions import RoutingError


@dataclass(frozen=True)
class RoutingPlan:
    """Result of routing one step's assignment onto a placement.

    Attributes:
        routes: Integer tensor ``(experts, src_gpus, dst_gpus)``.
        capacities: Per-expert per-vExpert capacity ``cap_e`` used.
    """

    routes: np.ndarray
    capacities: np.ndarray

    @property
    def arrivals(self) -> np.ndarray:
        """Tokens arriving at each GPU per expert: ``(experts, dst_gpus)``."""
        return self.routes.sum(axis=1)

    @property
    def gpu_loads(self) -> np.ndarray:
        """Total tokens processed by each GPU."""
        return self.routes.sum(axis=(0, 1))

    @property
    def locality_fraction(self) -> float:
        """Fraction of tokens that never left their source GPU."""
        total = self.routes.sum()
        if total == 0:
            return 1.0
        local = np.trace(self.routes.sum(axis=0))
        return float(local / total)

    def tokens_for(self, expert: int) -> int:
        return int(self.routes[expert].sum())


def _validate_assignment(assignment: np.ndarray, placement: Placement) -> np.ndarray:
    assignment = np.asarray(assignment)
    if assignment.ndim != 2:
        raise RoutingError("assignment must be (experts, gpus)")
    if assignment.shape != (placement.num_experts, placement.num_gpus):
        raise RoutingError(
            f"assignment shape {assignment.shape} does not match placement "
            f"({placement.num_experts}, {placement.num_gpus})"
        )
    if not np.isfinite(assignment).all():
        raise RoutingError("token counts must be finite")
    if (assignment < 0).any():
        raise RoutingError("token counts must be non-negative")
    return assignment


class FlexibleTokenRouter:
    """Locality-first router over replicated experts, fully vectorized."""

    def route(self, assignment: np.ndarray, placement: Placement) -> RoutingPlan:
        """Compute the routing plan for one step.

        Args:
            assignment: Integer ``I`` matrix ``(experts, src_gpus)``.
            placement: Current expert-to-device mapping.

        Raises:
            RoutingError: On shape mismatch, non-finite or negative counts.
        """
        demand = _validate_assignment(assignment, placement).astype(np.int64)
        num_experts, num_gpus = demand.shape
        counts = placement.counts_view

        totals = demand.sum(axis=1)
        replicas = counts.sum(axis=1)
        capacities = np.zeros(num_experts, dtype=np.int64)
        active = totals > 0
        capacities[active] = -(-totals[active] // replicas[active])  # ceil

        # Locality first, all experts at once: each source keeps up to its
        # local replicas' capacity.
        cap_matrix = counts * capacities[:, None]
        local = np.minimum(demand, cap_matrix)
        remaining = cap_matrix - local
        spill = demand - local

        routes = np.zeros((num_experts, num_gpus, num_gpus), dtype=np.int64)
        diag = np.arange(num_gpus)
        routes[:, diag, diag] = local
        spilling = np.flatnonzero(spill.sum(axis=1))
        if spilling.size:
            self._scatter_spill_batch(routes, spill, remaining, spilling)
        return RoutingPlan(routes=routes, capacities=capacities)

    @staticmethod
    def _scatter_spill_batch(
        routes: np.ndarray,
        spill: np.ndarray,
        remaining: np.ndarray,
        spilling: np.ndarray,
    ) -> None:
        """Scatter every spilling expert's tokens in one batched pass.

        Proportional shares are floored for all experts at once; the
        integer leftovers (one partial token per fractional share) are then
        placed by a vectorized northwest-corner fill over the cumulative
        (row leftover, column slack) profiles. The fill is feasible by
        construction — the per-vExpert capacity contract guarantees each
        expert's total column slack covers its total row leftover — and
        both the row sums (conservation) and column caps (capacity) hold
        exactly.
        """
        sub_spill = spill[spilling]
        sub_rem = remaining[spilling]
        totals = sub_rem.sum(axis=1).astype(float)
        if (sub_spill.sum(axis=1) > sub_rem.sum(axis=1)).any():
            raise RoutingError(
                "spill exceeds available capacity — capacity invariant violated"
            )
        exact = sub_spill[:, :, None] * (sub_rem / totals[:, None])[:, None, :]
        shares = np.floor(exact).astype(np.int64)
        row_left = sub_spill - shares.sum(axis=2)
        col_slack = sub_rem - shares.sum(axis=1)
        # Northwest-corner fill: walk rows and columns in index order,
        # granting each (row, column) cell the overlap of the row's and the
        # column's outstanding cumulative ranges.
        rows_hi = np.cumsum(row_left, axis=1)
        cols_hi = np.cumsum(col_slack, axis=1)
        rows_lo = rows_hi - row_left
        cols_lo = cols_hi - col_slack
        upper = np.minimum(rows_hi[:, :, None], cols_hi[:, None, :])
        lower = np.maximum(rows_lo[:, :, None], cols_lo[:, None, :])
        shares += np.maximum(upper - lower, 0)
        routes[spilling] += shares

    def route_fractional(
        self, assignment: np.ndarray, placement: Placement
    ) -> np.ndarray:
        """Fast continuous-relaxation routing for cost estimation.

        Identical policy to :meth:`route` — locality first, spill spread
        proportionally to available capacity — but token counts stay
        fractional, avoiding the per-source integer apportionment. The
        Policy Maker and Migrate planner evaluate hundreds of candidate
        placements per step; their decisions only need modelled *costs*, for
        which the relaxation is exact up to rounding.

        Returns:
            Float route tensor ``(experts, src, dst)``.

        Raises:
            RoutingError: On shape mismatch, non-finite or negative counts.
        """
        assignment = _validate_assignment(assignment, placement).astype(float)
        counts = placement.counts_view
        num_experts, num_gpus = assignment.shape
        totals = assignment.sum(axis=1)
        replicas = counts.sum(axis=1).astype(float)
        # Fractional per-GPU capacity: counts[e, g] * (total_e / n_e).
        per_replica = np.divide(
            totals, replicas, out=np.zeros_like(totals), where=replicas > 0
        )
        capacity = counts * per_replica[:, None]
        local = np.minimum(assignment, capacity)
        spill = assignment - local
        avail = capacity - local
        avail_totals = avail.sum(axis=1)
        weights = np.divide(
            avail,
            avail_totals[:, None],
            out=np.zeros_like(avail),
            where=avail_totals[:, None] > 0,
        )
        routes = spill[:, :, None] * weights[:, None, :]
        diag = np.arange(num_gpus)
        routes[:, diag, diag] += local
        return routes


class ReferenceTokenRouter(FlexibleTokenRouter):
    """The original per-expert / per-source greedy router.

    Kept as the executable specification of Algorithm 3: the vectorized
    :class:`FlexibleTokenRouter` is property-tested against it, and the
    ``python -m repro bench`` routing microbenchmark measures its speedup
    over this implementation.
    """

    def route(self, assignment: np.ndarray, placement: Placement) -> RoutingPlan:
        demand_matrix = _validate_assignment(assignment, placement)
        num_experts, num_gpus = demand_matrix.shape
        counts = placement.counts
        routes = np.zeros((num_experts, num_gpus, num_gpus), dtype=np.int64)
        capacities = np.zeros(num_experts, dtype=np.int64)
        for expert in range(num_experts):
            demand = demand_matrix[expert].astype(np.int64)
            total = int(demand.sum())
            if total == 0:
                continue
            replicas = counts[expert]
            n_e = int(replicas.sum())
            cap = -(-total // n_e)  # ceil division
            capacities[expert] = cap
            self._route_expert(routes[expert], demand, replicas * cap)
        return RoutingPlan(routes=routes, capacities=capacities)

    def _route_expert(
        self, routes: np.ndarray, demand: np.ndarray, capacity: np.ndarray
    ) -> None:
        """Fill ``routes[src, dst]`` for one expert in place."""
        remaining = capacity.copy()
        # Locality first: serve each source from its own replicas.
        local = np.minimum(demand, remaining)
        np.fill_diagonal(routes, local)
        remaining -= local
        spill = demand - local
        for src in np.flatnonzero(spill):
            tokens = int(spill[src])
            available = np.flatnonzero(remaining)
            if available.size == 1:
                dst = available[0]
                routes[src, dst] += tokens
                remaining[dst] -= tokens
                continue
            avail = remaining[available]
            shares = self._apportion(tokens, avail)
            routes[src, available] += shares
            remaining[available] -= shares

    @staticmethod
    def _apportion(tokens: int, avail: np.ndarray) -> np.ndarray:
        """Split ``tokens`` proportionally to ``avail``, integrally, capped.

        Uses largest-remainder apportionment. Requires
        ``tokens <= avail.sum()`` (guaranteed by capacity construction).
        """
        total_avail = int(avail.sum())
        if tokens > total_avail:
            raise RoutingError(
                f"cannot place {tokens} tokens into {total_avail} available "
                "capacity — capacity invariant violated"
            )
        exact = tokens * avail / total_avail
        shares = np.floor(exact).astype(np.int64)
        leftover = tokens - int(shares.sum())
        if leftover:
            slack = avail - shares
            remainders = exact - shares
            # Hand leftover tokens to the largest remainders with slack.
            order = np.argsort(-remainders, kind="stable")
            for idx in order:
                if leftover == 0:
                    break
                if slack[idx] > 0:
                    shares[idx] += 1
                    slack[idx] -= 1
                    leftover -= 1
            if leftover:
                raise RoutingError("apportionment failed to place all tokens")
        return shares


def validate_conservation(
    assignment: np.ndarray, plan: RoutingPlan
) -> None:
    """Assert that ``plan`` processes every assigned token exactly once.

    Raises:
        RoutingError: If any (expert, source) pair's tokens are lost or
            duplicated.
    """
    sent = plan.routes.sum(axis=2)
    if not np.array_equal(sent, np.asarray(assignment)):
        diff = np.argwhere(sent != np.asarray(assignment))
        e, g = diff[0]
        raise RoutingError(
            f"conservation violated for expert {e}, source gpu {g}: "
            f"assigned {assignment[e, g]}, routed {sent[e, g]}"
        )
