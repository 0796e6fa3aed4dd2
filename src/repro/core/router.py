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
  floor-plus-northwest-corner pass over its block of (spilling sources x
  replica holders with slack). :meth:`~FlexibleTokenRouter.route_layers`
  routes every MoE layer of a step in one pass over the layers stacked
  along the expert axis; ``route`` is its one-layer case.
* :class:`ReferenceTokenRouter` — the original per-expert / per-source
  greedy loop, kept as the executable specification the vectorized router
  is benchmarked and property-tested against.

The two may place individual spill tokens on different replicas (both
orders are valid under the capacity contract), but they agree on
conservation, capacities, locality, and never exceed per-vExpert capacity.

A :class:`RoutingPlan` is sparse: the per-source local tokens, the spill
as COO entries and the ``G x G`` flow the executors and the cost model
consume. :meth:`FlexibleTokenRouter.route_fractional` returns the same
form with fractional token counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from repro.core.placement import Placement
from repro.exceptions import RoutingError

#: Spill cells (spilling source x holder with slack) priced per batch of
#: experts; a single expert whose block exceeds it runs as one batch. It
#: bounds the scatter's temporaries: a 4096-device, 512-expert step
#: prices ~62M cells, and in batches of this size its peak is the ~8M
#: routes it returns rather than a dozen 62M-element arrays.
SPILL_CHUNK_CELLS = 1 << 20


class SpillRoutes(NamedTuple):
    """Cross-GPU routes as COO entries, one per non-zero
    ``routes[expert, src, dst]``, ordered by ``(expert, src, dst)``."""

    expert: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    tokens: np.ndarray


@dataclass(frozen=True)
class RoutingPlan:
    """Result of routing one step's assignment onto a placement.

    The plan is sparse: an expert's spill only reaches its replica
    holders, so the dense ``(experts, src, dst)`` tensor is mostly zeros.

    Attributes:
        local: Tokens each source GPU kept on its own replicas,
            ``(experts, gpus)`` — the diagonal of the route tensor.
        spill: Every off-diagonal route as a COO entry.
        capacities: Per-expert per-vExpert capacity ``cap_e`` used.
        flow: ``(src, dst)`` token flow summed over experts -- what the
            executors and the cost model consume.

    Token counts are integers from ``route``, floats from
    ``route_fractional``.
    """

    local: np.ndarray
    spill: SpillRoutes
    capacities: np.ndarray
    flow: np.ndarray

    @property
    def arrivals(self) -> np.ndarray:
        """Tokens arriving at each GPU per expert: ``(experts, dst_gpus)``."""
        return self.local + _scatter_sum(
            self.spill.expert, self.spill.dst, self.spill.tokens,
            self.local.shape,
        )

    @property
    def gpu_loads(self) -> np.ndarray:
        """Total tokens processed by each GPU."""
        return self.flow.sum(axis=0)

    @property
    def locality_fraction(self) -> float:
        """Fraction of tokens that never left their source GPU."""
        total = self.flow.sum()
        if total == 0:
            return 1.0
        return float(np.trace(self.flow) / total)


class LayerPlans(NamedTuple):
    """Every MoE layer's plan of one step, from
    :meth:`FlexibleTokenRouter.route_layers`.

    Attributes:
        plans: One :class:`RoutingPlan` per layer, in layer order.
        flows: The layers' flows stacked ``(layers, src, dst)``; each
            plan's ``flow`` is a view of its row.
    """

    plans: list[RoutingPlan]
    flows: np.ndarray


def _scatter_sum(
    rows: np.ndarray, cols: np.ndarray, values: np.ndarray, shape: tuple
) -> np.ndarray:
    """``out[rows, cols] += values`` over a zero ``shape`` matrix, in the
    values' dtype (``bincount``'s float sums are exact for integer token
    counts < 2**53)."""
    flat = np.bincount(
        rows * shape[1] + cols, weights=values, minlength=shape[0] * shape[1]
    )
    return flat.astype(values.dtype, copy=False).reshape(shape)


def _validate_assignment(assignment: np.ndarray, placement: Placement) -> np.ndarray:
    assignment = _checked_shape(assignment, placement)
    _check_counts(assignment)
    return assignment


def _checked_shape(assignment: np.ndarray, placement: Placement) -> np.ndarray:
    assignment = np.asarray(assignment)
    if assignment.ndim != 2:
        raise RoutingError("assignment must be (experts, gpus)")
    if assignment.shape != (placement.num_experts, placement.num_gpus):
        raise RoutingError(
            f"assignment shape {assignment.shape} does not match placement "
            f"({placement.num_experts}, {placement.num_gpus})"
        )
    return assignment


def _check_counts(counts: np.ndarray) -> None:
    if counts.dtype.kind not in "iub" and not np.isfinite(counts).all():
        raise RoutingError("token counts must be finite")
    if counts.size and counts.min() < 0:
        raise RoutingError("token counts must be non-negative")


def _integral(counts: np.ndarray) -> np.ndarray:
    """Validated token counts as int32 or int64; a fractional count
    raises instead of being truncated
    (:meth:`FlexibleTokenRouter.route_fractional` routes those).

    Int32 counts (every trace step) are kept as they are: the router's
    first arithmetic on them meets int64 capacities and widens there.
    Any other dtype becomes int64.
    """
    _check_counts(counts)
    if counts.dtype.kind not in "iub" and (counts != np.trunc(counts)).any():
        raise RoutingError(
            "token counts must be integers; route_fractional routes "
            "fractional counts"
        )
    if counts.dtype == np.int32:
        return counts
    return counts.astype(np.int64, copy=False)


def _stacked(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """``matrices`` stacked along their first axis (a lone one as is)."""
    return matrices[0] if len(matrices) == 1 else np.concatenate(matrices)


def _block_cells(
    row_e: np.ndarray, col_e: np.ndarray, num_experts: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cell layout of every expert's (row x column) block, row by row.

    Rows and columns are entries sorted by expert; a row's cells span its
    expert's columns in order. Returns each row's cell count and first
    cell, each expert's first column entry, and every cell's column.
    """
    n_cols = np.bincount(col_e, minlength=num_experts)
    col_first = np.cumsum(n_cols) - n_cols
    width = n_cols[row_e]
    row_first = np.cumsum(width) - width
    cell_col = np.arange(width.sum()) - np.repeat(
        row_first - col_first[row_e], width
    )
    return width, row_first, col_first, cell_col


def _scatter_blocks(
    spill: np.ndarray, remaining: np.ndarray, slack: np.ndarray, first: int
) -> SpillRoutes:
    """:meth:`FlexibleTokenRouter._scatter_spill` for the batch of experts
    ``first, first + 1, ...``, over their (spilling source x slack
    holder) cells.

    Every row is one expert's spilling source and every column one of its
    holders with slack, both in GPU order; cells are laid out row by row,
    so a row's cells are contiguous.
    """
    row_e, row_g = np.nonzero(spill)
    col_e, col_g = np.nonzero(remaining)
    row_tokens = spill[row_e, row_g]
    col_slack = remaining[col_e, col_g]
    width, row_first, col_first, cell_col = _block_cells(
        row_e, col_e, len(spill)
    )
    # The same per-cell float arithmetic as a dense (rows x GPUs) pass.
    # Shares stay float from here on: sums of token counts are exact.
    weight = col_slack / slack[col_e]
    shares = np.repeat(row_tokens, width) * weight[cell_col]
    np.floor(shares, out=shares)
    row_left = row_tokens - np.add.reduceat(shares, row_first)
    col_left = col_slack - np.bincount(
        cell_col, weights=shares, minlength=col_e.size
    )
    rows, cols, fill = _northwest_corner(
        row_left, row_e, col_left, col_e, len(spill)
    )
    shares[row_first[rows] + cols - col_first[row_e[rows]]] += fill
    kept = np.flatnonzero(shares)
    kept_row = np.repeat(np.arange(row_e.size), width)[kept]
    return SpillRoutes(
        expert=row_e[kept_row] + first,
        src=row_g[kept_row],
        dst=col_g[cell_col[kept]],
        tokens=shares[kept].astype(np.int64),
    )


def _northwest_corner(
    row_left: np.ndarray,
    row_e: np.ndarray,
    col_left: np.ndarray,
    col_e: np.ndarray,
    num_experts: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Northwest-corner fill of each expert's row leftovers into its
    column slack.

    Walking an expert's rows and columns in GPU order, each (row, column)
    cell is granted the overlap of the row's and the column's cumulative
    ranges. Only the at most ``rows + cols - 1`` cells on each expert's
    staircase get a non-zero overlap, so they are found directly: lay the
    experts' row ranges end to end on one line, move each expert's column
    ranges onto its rows' stretch (clipped at its end), and cut the line
    at every range end. Each piece lies in exactly one row and one column.

    Returns:
        ``(row entry, column entry, tokens)`` of every non-zero fill.
    """
    rows_hi = np.cumsum(row_left)
    # Per-expert totals; float sums of token counts are exact.
    row_total = np.bincount(row_e, weights=row_left, minlength=num_experts)
    col_total = np.bincount(col_e, weights=col_left, minlength=num_experts)
    row_end = np.cumsum(row_total)
    shift = (np.cumsum(col_total) - col_total) - (row_end - row_total)
    cols_hi = np.minimum(np.cumsum(col_left) - shift[col_e], row_end[col_e])
    edges = np.sort(np.concatenate(([0], rows_hi, cols_hi)))
    pieces = np.flatnonzero(np.diff(edges))
    starts = edges[pieces]
    return (
        np.searchsorted(rows_hi, starts, side="right"),
        np.searchsorted(cols_hi, starts, side="right"),
        edges[pieces + 1] - starts,
    )


class FlexibleTokenRouter:
    """Locality-first router over replicated experts, fully vectorized."""

    def route(self, assignment: np.ndarray, placement: Placement) -> RoutingPlan:
        """Compute the routing plan for one step: the one-layer case of
        :meth:`route_layers`.

        Args:
            assignment: Integer ``I`` matrix ``(experts, src_gpus)``.
            placement: Current expert-to-device mapping.

        Raises:
            RoutingError: On shape mismatch, non-finite, negative or
                fractional counts.
        """
        return self.route_layers((assignment,), (placement,)).plans[0]

    def route_layers(
        self,
        assignments: Sequence[np.ndarray],
        placements: Sequence[Placement],
    ) -> LayerPlans:
        """Route every MoE layer of a step, one plan per layer.

        Routing is separable per expert, so layers are stacked along the
        expert axis and routed as one ``(layers * experts, gpus)``
        demand; the plans are exactly the per-layer ones. A stack holds
        as many layers as keep its ``experts x gpus x gpus`` block cells
        within :data:`SPILL_CHUNK_CELLS` (at least one), so from 1024
        devices up every layer routes on its own and the scatter's peak
        memory is the single-layer one.

        Args:
            assignments: One integer ``(experts, src_gpus)`` matrix per
                layer (a ``(layers, experts, gpus)`` array will do).
            placements: Each layer's expert-to-device mapping; all share
                one ``(experts, gpus)`` shape.

        Raises:
            RoutingError: On no layers, a count mismatch between
                assignments and placements, placements of different
                shapes, or any layer's shape mismatch, non-finite,
                negative or fractional counts.
        """
        if len(assignments) != len(placements):
            raise RoutingError(
                f"{len(assignments)} assignments for {len(placements)} "
                "placements"
            )
        if not placements:
            raise RoutingError("no layers to route")
        num_experts, num_gpus = placements[0].num_experts, placements[0].num_gpus
        if any(
            (p.num_experts, p.num_gpus) != (num_experts, num_gpus)
            for p in placements
        ):
            raise RoutingError(
                "placements must share one (experts, gpus) shape"
            )
        layers = [_checked_shape(a, p) for a, p in zip(assignments, placements)]
        per_stack = max(
            1, SPILL_CHUNK_CELLS // max(1, num_experts * num_gpus * num_gpus)
        )
        flows = np.empty((len(layers), num_gpus, num_gpus), dtype=np.int64)
        plans: list[RoutingPlan] = []
        for lo in range(0, len(layers), per_stack):
            stack = slice(lo, lo + per_stack)
            plans += self._route_stack(
                _integral(_stacked(layers[stack])),
                _stacked([p.counts_view for p in placements[stack]]),
                flows[stack],
            )
        return LayerPlans(plans, flows)

    def _route_stack(
        self, demand: np.ndarray, counts: np.ndarray, flows: np.ndarray
    ) -> list[RoutingPlan]:
        """Route layers stacked as ``(layers * experts, gpus)`` int64
        demand over their stacked placement counts, writing each layer's
        flow into ``flows`` ``(layers, gpus, gpus)``."""
        num_layers, num_gpus = len(flows), demand.shape[1]
        num_experts = len(demand) // num_layers

        # ceil(I_e / n_e); an expert without replicas keeps no tokens
        # locally, so its spill fails the capacity check below.
        replicas = np.maximum(counts.sum(axis=1), 1)
        capacities = -(-demand.sum(axis=1) // replicas)

        # Locality first, all experts at once: each source keeps up to its
        # local replicas' capacity.
        cap_matrix = counts * capacities[:, None]
        local = np.minimum(demand, cap_matrix)
        spill = self._scatter_spill(demand - local, cap_matrix - local)

        # The spill COO is sorted by expert: cut it at the layer starts,
        # and number the experts of every later layer from 0.
        firsts = np.arange(num_layers + 1) * num_experts
        cuts = np.searchsorted(spill.expert, firsts)
        later = slice(cuts[1], None)
        layer = np.repeat(np.arange(1, num_layers), np.diff(cuts[1:]))
        spill.expert[later] -= layer * num_experts
        # Every layer's (src, dst) flow from one bincount with a layer
        # offset; the diagonal is each layer's local tokens.
        cells = num_gpus * num_gpus
        cell = spill.src * num_gpus + spill.dst
        cell[later] += layer * cells
        by_layer = flows.reshape(num_layers, cells)
        by_layer[:] = np.bincount(
            cell, weights=spill.tokens, minlength=num_layers * cells
        ).reshape(num_layers, cells)
        by_layer[:, :: num_gpus + 1] += local.reshape(
            num_layers, num_experts, num_gpus
        ).sum(axis=1)
        plans = []
        for index in range(num_layers):
            rows = slice(firsts[index], firsts[index + 1])
            cut = slice(cuts[index], cuts[index + 1])
            plans.append(RoutingPlan(
                local=local[rows],
                spill=SpillRoutes(*(field[cut] for field in spill)),
                capacities=capacities[rows],
                flow=flows[index],
            ))
        return plans

    @staticmethod
    def _scatter_spill(spill: np.ndarray, remaining: np.ndarray) -> SpillRoutes:
        """Scatter every spilling expert's tokens to its slack replicas.

        Proportional shares are floored, then the integer leftovers (one
        partial token per fractional share) are placed by a northwest-
        corner fill over the cumulative (row leftover, column slack)
        profiles. The fill is feasible by construction — the per-vExpert
        capacity contract guarantees each expert's total column slack
        covers its total row leftover — and both the row sums
        (conservation) and column caps (capacity) hold exactly.

        Only each expert's block (spilling sources x holders with slack)
        is priced: outside it the floor shares and the fill are exactly
        zero. Experts are batched so a batch holds about
        :data:`SPILL_CHUNK_CELLS` block cells.
        """
        slack = remaining.sum(axis=1)
        if (spill.sum(axis=1) > slack).any():
            raise RoutingError(
                "spill exceeds available capacity — capacity invariant violated"
            )
        if not spill.any():
            empty = np.zeros(0, dtype=np.int64)
            return SpillRoutes(empty, empty, empty, empty)
        # Every block fits in experts x GPUs x GPUs cells.
        if spill.size * spill.shape[1] <= SPILL_CHUNK_CELLS:
            return _scatter_blocks(spill, remaining, slack, 0)
        cells = np.count_nonzero(spill, axis=1) * np.count_nonzero(
            remaining, axis=1
        )
        batch = (np.cumsum(cells) - cells) // SPILL_CHUNK_CELLS
        cuts = [0, *(np.flatnonzero(np.diff(batch)) + 1), len(spill)]
        parts = [
            _scatter_blocks(spill[lo:hi], remaining[lo:hi], slack[lo:hi], lo)
            for lo, hi in zip(cuts[:-1], cuts[1:])
            if cells[lo:hi].any()
        ]
        return SpillRoutes(*map(np.concatenate, zip(*parts)))

    def route_fractional(
        self, assignment: np.ndarray, placement: Placement
    ) -> RoutingPlan:
        """Fast continuous-relaxation routing for cost estimation.

        Identical policy to :meth:`route` -- locality first, spill spread
        proportionally to available capacity -- but token counts stay
        fractional. This is the full-recompute oracle's router; the
        delta evaluator (:mod:`repro.core.delta`) derives the same routes
        per holder entry on its own, and tests hold the two together.

        Returns:
            A :class:`RoutingPlan` with float counts: expert ``e`` sends
            ``spill[e, s] * weights[e, d]`` tokens from each spilling
            source ``s`` to each holder ``d`` with spare capacity.

        Raises:
            RoutingError: On shape mismatch, non-finite or negative counts.
        """
        assignment = _validate_assignment(assignment, placement).astype(float)
        counts = placement.counts_view
        num_gpus = assignment.shape[1]
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
        # One cell per (spilling source, holder with slack) of an expert,
        # laid out row by row: the COO comes out in (expert, src, dst)
        # order. A spilling source has no slack, so no cell is diagonal.
        row_e, row_g = np.nonzero(spill)
        col_e, col_g = np.nonzero(weights)
        width, _, _, cell_col = _block_cells(row_e, col_e, len(spill))
        routes = SpillRoutes(
            expert=np.repeat(row_e, width),
            src=np.repeat(row_g, width),
            dst=col_g[cell_col],
            tokens=np.repeat(spill[row_e, row_g], width)
            * weights[col_e, col_g][cell_col],
        )
        flow = _scatter_sum(
            routes.src, routes.dst, routes.tokens, (num_gpus, num_gpus)
        )
        flow.flat[:: num_gpus + 1] += local.sum(axis=0)
        return RoutingPlan(
            local=local, spill=routes, capacities=per_replica, flow=flow
        )


def _plan_from_dense(routes: np.ndarray, capacities: np.ndarray) -> RoutingPlan:
    """The sparse plan of a dense ``(experts, src, dst)`` route tensor.

    Consumes ``routes``: its diagonal is zeroed in place.
    """
    flow = routes.sum(axis=0)
    diag = np.arange(routes.shape[1])
    local = routes[:, diag, diag]
    routes[:, diag, diag] = 0
    expert, src, dst = np.nonzero(routes)
    return RoutingPlan(
        local=local,
        spill=SpillRoutes(expert, src, dst, routes[expert, src, dst]),
        capacities=capacities,
        flow=flow,
    )


class ReferenceTokenRouter(FlexibleTokenRouter):
    """The original per-expert / per-source greedy router.

    Kept as the executable specification of Algorithm 3: the vectorized
    :class:`FlexibleTokenRouter` is property-tested against it, and the
    ``python -m repro bench`` routing microbenchmark measures its speedup
    over this implementation.
    """

    def route(self, assignment: np.ndarray, placement: Placement) -> RoutingPlan:
        demand_matrix = _integral(_checked_shape(assignment, placement))
        num_experts, num_gpus = demand_matrix.shape
        counts = placement.counts
        routes = np.zeros((num_experts, num_gpus, num_gpus), dtype=np.int64)
        capacities = np.zeros(num_experts, dtype=np.int64)
        for expert in range(num_experts):
            demand = demand_matrix[expert]
            total = int(demand.sum())
            if total == 0:
                continue
            replicas = counts[expert]
            n_e = int(replicas.sum())
            cap = -(-total // n_e)  # ceil division
            capacities[expert] = cap
            # Widen first: NumPy 2 keeps ``int16 * int`` in int16.
            self._route_expert(
                routes[expert], demand, replicas.astype(np.int64) * cap
            )
        return _plan_from_dense(routes, capacities)

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
    sent = plan.local + _scatter_sum(
        plan.spill.expert, plan.spill.src, plan.spill.tokens, plan.local.shape
    )
    if not np.array_equal(sent, np.asarray(assignment)):
        diff = np.argwhere(sent != np.asarray(assignment))
        e, g = diff[0]
        raise RoutingError(
            f"conservation violated for expert {e}, source gpu {g}: "
            f"assigned {assignment[e, g]}, routed {sent[e, g]}"
        )
