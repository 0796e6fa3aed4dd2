"""Incremental (delta) step-cost evaluation for the placement search.

The Policy Maker (Algorithm 2) and the Migrate planner score hundreds of
candidate placements per scheduling round, and every candidate differs from
the base placement in at most two experts' replica sets.  The full
evaluator re-derives everything per candidate: it copies the E x D count
matrix, re-solves the router's fractional relaxation for *all* experts and
re-prices every replica group's AllReduce.  This module exploits the
structure instead:

* routing is separable per expert — expert ``e``'s fractional routes depend
  only on its own assignment row and its own replica row;
* the cost terms of Eq. 5 are sums of per-expert contributions — per-GPU
  compute tokens, per-destination All-to-All seconds and per-group sync
  seconds all add up linearly over experts;
* under locality-first routing every one of those contributions is zero
  off the expert's replica *holders*: capacity, local tokens, spare
  capacity, spill weights, arrivals and All-to-All seconds live only
  where the expert has a vExpert.

:class:`DeltaStepCost` therefore stores the base ``(assignment,
placement)`` configuration holder-sparse.  One index of the count matrix
lists every ``(expert, device, count)`` entry (sorted by expert, then
device); each entry carries its arrivals and All-to-All seconds, and each
expert one scalar AllReduce time (every member of a replica group pays the
same ``grad_bytes / bps``).  The only dense inputs a route needs are the
assignment row's total and its per-node sums (see
:meth:`~repro.cluster.bandwidth.BandwidthModel.inflow_at`), so at an
expert density of ~1% (32 holders of 4096 devices) a route costs O(holders)
instead of O(D).  A single kernel, :meth:`DeltaStepCost._route`, prices
holder entries for the rebase, both query shapes and the audit.

The demand matrix is the one ``E x D`` input a rebase must read, and it
reads a new one once (one check pass and one node-sum pass) and an
unchanged one not at all.  A frozen demand -- read-only, with every
``.base`` up to its owner read-only, C-contiguous int32, int64 or
float64; every trace step is a frozen int32 one -- is kept by reference
rather than copied, and passing that same array again settles "same
demand" by identity.  Any other input is snapshotted in its own kind
(integers as int64, the rest as float), so a caller's writeable array
changed in place still reads as a new demand.  Integer demand stays
integer through its node sums and the row totals taken from them, which
are exact; only the ``(E,)`` totals become float.

Scoring a candidate re-routes only the changed experts' entries and takes
Eq. 5's max over a copy of the base per-GPU times with the changed
experts' old contributions scattered out and their new ones scattered in.
Pricing is split in two: *routing* a batch of candidates touches no
AllReduce group, and *finishing* a contiguous range of them probes the
sync groups of their flipped rows and takes the max (a cost model with
no gradient sync has nothing to probe, so its batches finish in one pass).
Two query shapes cover the searchers:

* :meth:`pair_candidates` — routes (Shrink, Expand) candidates of any
  mix of pairs in one pass and returns a :class:`CandidateBatch` whose
  :meth:`~CandidateBatch.times` finishes a range, so the Policy Maker
  routes a whole round at once yet finishes only the candidates its
  search reaches;
* :meth:`exchange_candidate_times` — batch-scores every vExpert exchange
  of one Migrate planner pass.

The evaluator matches :class:`~repro.core.cost_model.MemoizedStepCost` (the
retained, audited reference path) to float tolerance; the equivalence suite
in ``tests/test_delta_cost.py`` and ``tests/test_policy_delta_equivalence.py``
asserts both the times and the resulting scheduling decisions.  Lazily
profiled AllReduce groups are probed in the same first-seen order as
:meth:`~repro.core.cost_model.MoECostModel.sync_times` (ascending expert,
candidates in enumeration order, at finish time), so noisy profiles stay
bit-identical between the delta and reference paths.

If a query arrives against a configuration the cached base no longer
matches (different placement object, or the device pool changed under an
elasticity event mid-search), the evaluator falls back to a full
recomputation and counts it in :attr:`fallbacks` — the perf smoke gate
(``python -m repro perf --smoke``) fails when the hot path ever takes that
exit.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.cluster.bandwidth import SourceRows
from repro.core.cost_model import MoECostModel
from repro.core.placement import Placement
from repro.exceptions import RoutingError, SchedulingError


class HolderIndex(NamedTuple):
    """Holder-sparse view of a count matrix.

    Every non-zero ``(expert, gpu, count)`` cell, sorted by expert then
    GPU; expert ``e``'s entries are ``ptr[e]:ptr[e + 1]``.
    """

    expert: np.ndarray
    gpu: np.ndarray
    count: np.ndarray
    ptr: np.ndarray

    @classmethod
    def of(cls, counts: np.ndarray) -> "HolderIndex":
        """Index a dense ``(E, G)`` count matrix in one O(E * G) scan.

        The scan is a flat ``flatnonzero`` split by ``divmod`` -- several
        times cheaper than a two-dimensional ``nonzero`` at ``(512,
        4096)``.  :meth:`DeltaStepCost.rebase` indexes a new shape through
        it; later rebases re-index only the rows that changed.
        """
        expert, gpu = np.divmod(np.flatnonzero(counts != 0), counts.shape[1])
        return cls(
            expert,
            gpu,
            counts[expert, gpu],
            np.searchsorted(expert, np.arange(counts.shape[0] + 1)),
        )


def _frozen(array: np.ndarray) -> bool:
    """Whether ``array`` and every ``.base`` up to its owner are read-only.

    NumPy refuses a write through such an array, and refuses to make a
    view of a read-only base writeable again; only the owner's holder
    could lift the flag, and a trace never does (every
    :class:`~repro.workload.trace.RoutingTrace` and
    :class:`~repro.workload.trace.MultiLayerTrace` step is frozen).
    """
    while isinstance(array, np.ndarray):
        if array.flags.writeable:
            return False
        array = array.base
    return array is None


def _held_demand(assignment: np.ndarray) -> np.ndarray:
    """The demand matrix :meth:`DeltaStepCost.rebase` keeps.

    A frozen C-contiguous int32, int64 or float64 array is kept by
    reference: its values cannot change, so the next rebase may compare
    against it (or settle it by identity) without a copy.  Anything else
    is snapshotted, so a caller mutating their array in place is seen as
    a new demand: integers as int64, any other dtype as float.
    """
    if (
        assignment.dtype in (np.int32, np.int64, np.float64)
        and assignment.flags.c_contiguous
        and _frozen(assignment)
    ):
        return assignment
    dtype = np.int64 if assignment.dtype.kind in "iu" else float
    return np.array(assignment, dtype=dtype, order="C")


def _checked_demand(demand: np.ndarray) -> np.ndarray:
    """``demand`` once checked for negative counts, widened to int64 if
    it is int32 and its rows could reach ``2**31``.

    An integer demand is read in one pass, through its unsigned view: a
    negative count reads as at least ``2**(bits - 1)`` there, and the same
    maximum bounds every row total by ``peak * columns``.
    :meth:`~repro.cluster.bandwidth.BandwidthModel.source_rows` sums int32
    rows in int32, so the rare int32 demand whose bound reaches ``2**31``
    (no trace step's does) is copied to int64 and prices exactly.
    """
    if not demand.size:
        return demand
    if demand.dtype.kind == "f":
        if demand.min() < 0:
            raise RoutingError("token counts must be non-negative")
        return demand
    peak = int(demand.view(f"u{demand.itemsize}").max())
    if peak > np.iinfo(demand.dtype).max:
        raise RoutingError("token counts must be non-negative")
    if demand.dtype == np.int32 and peak * demand.shape[1] >= 2**31:
        return demand.astype(np.int64)
    return demand


class DeltaStepCost:
    """Incremental what-if evaluator over a cached base configuration.

    Args:
        cost_model: Profiled cost model (Eqs. 5, 7-9) supplying TPS,
            bandwidth, AllReduce BPS and the live device pool.
        audit: When true, every delta evaluation is cross-checked against a
            full recomputation and a mismatch beyond float tolerance raises
            :class:`~repro.exceptions.SchedulingError`.  Test/debug knob —
            it re-introduces the O(E * D) cost per candidate.
    """

    #: Relative tolerance of the audit cross-check.
    AUDIT_RTOL = 1e-9

    def __init__(self, cost_model: MoECostModel, audit: bool = False) -> None:
        self._cost_model = cost_model
        self._audit = audit
        # Implicit fabric: the All-to-All aggregation runs through the
        # node-blocked model in O(1) per holder entry, no G x G inverse.
        self._bw = cost_model.profile.bandwidth_model()
        # Instance-level factors so inference-shaped cost models (two
        # A2A passes, no gradient sync) price deltas consistently.
        self._a2a_factor = cost_model.a2a_passes * cost_model.model.token_bytes
        self._grad_bytes = cost_model.sync_bytes
        # Base state (populated by rebase()).
        self._placement: Placement | None = None
        self._placement_version = -1
        self._state_version = -1
        self._assignment: np.ndarray | None = None
        self._sources: SourceRows | None = None
        self._eff_tps: np.ndarray | None = None
        # Holder index of the base count matrix, sorted by (expert, gpu):
        # entries of expert e are _ptr[e]:_ptr[e + 1].
        self._expert: np.ndarray | None = None
        self._gpu: np.ndarray | None = None
        self._count: np.ndarray | None = None
        self._keys: np.ndarray | None = None
        self._ptr: np.ndarray | None = None
        self._replicas: np.ndarray | None = None
        self._index_shape: tuple[int, int] | None = None
        # Per-entry route stats, per-expert sync seconds, and each entry's
        # contribution to its device's Eq. 5 time.
        self._arrivals: np.ndarray | None = None
        self._a2a: np.ndarray | None = None
        self._sync: np.ndarray | None = None
        self._contrib: np.ndarray | None = None
        self._base_per_gpu: np.ndarray | None = None
        self._base_time = 0.0
        # Accounting surfaced by the perf harness.
        self.rebases = 0
        self.evaluations = 0
        self.fallbacks = 0

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def cost_model(self) -> MoECostModel:
        return self._cost_model

    @property
    def holders(self) -> HolderIndex:
        """Holder index of the placement cached by the last rebase.

        Describes that placement only until it next mutates; planners
        read it right after a rebase instead of re-scanning the count
        matrix.
        """
        return HolderIndex(self._expert, self._gpu, self._count, self._ptr)

    @property
    def expert_loads(self) -> np.ndarray:
        """Read-only per-expert token totals of the last rebase's demand.

        The row sums the rebase already took (``SourceRows.totals``), so
        planners reading expert loads after a rebase need no ``E x G``
        pass of their own.  Describes that demand only until the next
        rebase with a different one.
        """
        if self._sources is None:
            raise SchedulingError(
                "DeltaStepCost has no base: call rebase() before querying"
            )
        loads = self._sources.totals.view()
        loads.flags.writeable = False
        return loads

    def stats(self) -> dict[str, float]:
        """Counter snapshot for bench reporting and the perf smoke gate."""
        return {
            "rebases": float(self.rebases),
            "evaluations": float(self.evaluations),
            "fallbacks": float(self.fallbacks),
        }

    # ------------------------------------------------------------------
    # Per-expert contribution math (mirrors FlexibleTokenRouter
    # .route_fractional and MoECostModel term by term)
    # ------------------------------------------------------------------
    def _route(
        self,
        row_expert: np.ndarray,
        row: np.ndarray,
        gpu: np.ndarray,
        count: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Arrivals and All-to-All seconds of expert rows, per holder entry.

        Row ``r`` prices expert ``row_expert[r]`` under the replica counts
        of its entries ``k`` (``row[k] == r``): ``count[k]`` vExperts on
        device ``gpu[k]``, at most one entry per device and row.  Entries
        may carry a zero count (a holder a candidate just vacated); they
        price to zero.  Returns per-entry ``(arrivals, a2a_seconds)``:
        tokens landing on the entry's device and the All-to-All seconds
        (Eq. 8) the row adds to it.
        """
        num_rows = row_expert.size
        expert = row_expert[row]
        counts = count.astype(float)
        totals = self._sources.totals[row_expert]
        replicas = np.bincount(row, weights=counts, minlength=num_rows)
        per_replica = np.divide(
            totals, replicas, out=np.zeros(num_rows), where=replicas > 0
        )
        capacity = counts * per_replica[row]
        local = np.minimum(self._assignment[expert, gpu], capacity)
        avail = capacity - local
        avail_totals = np.bincount(row, weights=avail, minlength=num_rows)[row]
        weights = np.divide(
            avail, avail_totals, out=np.zeros_like(avail),
            where=avail_totals > 0,
        )
        spill_totals = totals - np.bincount(
            row, weights=local, minlength=num_rows
        )
        arrivals = local + spill_totals[row] * weights
        # Destination d receives spill[s] * weights[d] tokens from every
        # source s != d; weights vanish off the holders, so the inflow is
        # needed only at the entries.
        inflow = self._bw.inflow_at(self._sources, expert, row, gpu, local)
        return arrivals, self._a2a_factor * weights * inflow

    def _per_gpu(self, gpu, arrivals, a2a, sync, eff_tps) -> np.ndarray:
        """Eq. 5's per-GPU times from holder entries (sync per entry)."""
        num_gpus = eff_tps.size
        tokens = np.bincount(gpu, weights=arrivals, minlength=num_gpus)
        return (
            tokens / eff_tps
            + np.bincount(gpu, weights=a2a, minlength=num_gpus)
            + np.bincount(gpu, weights=sync, minlength=num_gpus)
        )

    # ------------------------------------------------------------------
    # Base construction
    # ------------------------------------------------------------------
    def rebase(self, assignment: np.ndarray, placement: Placement) -> float:
        """Cache the base configuration; returns its modelled step time.

        Call once per scheduling round (or whenever the placement or
        assignment changes); every subsequent what-if query is evaluated
        as a delta against this base.

        A new demand is read once: one check pass and one node-sum pass.
        A frozen C-contiguous int32, int64 or float64 ``assignment``
        (every trace step is frozen int32) is kept by reference, anything
        else is snapshotted (integers as int64, the rest as float), so a
        caller's writeable array changed in place is seen as a new
        demand.  Passing the same frozen array again reads none of it.
        """
        assignment = np.asarray(assignment)
        if assignment.shape != (placement.num_experts, placement.num_gpus):
            raise RoutingError(
                f"assignment shape {assignment.shape} does not match "
                f"placement ({placement.num_experts}, {placement.num_gpus})"
            )
        counts = placement.counts_view
        num_experts, num_gpus = assignment.shape
        # The evaluator's own demand (a frozen alias, or the snapshot
        # _require_base passes back) is settled by identity.  Otherwise a
        # new step's demand differs in its first row, so comparing that
        # row first settles the common case without the full comparison.
        same_demand = assignment is self._assignment or (
            self._assignment is not None
            and np.array_equal(self._assignment[:1], assignment[:1])
            and np.array_equal(self._assignment, assignment)
        )
        if not same_demand:
            # Drop the old demand first so two snapshots never coexist;
            # until the new one is in, the evaluator has no base.
            self._assignment = self._sources = self._placement = None
            demand = _checked_demand(_held_demand(assignment))
            sources = self._bw.source_rows(demand)
            # A non-finite count makes its row total non-finite.
            if not np.isfinite(sources.totals).all():
                raise RoutingError("token counts must be finite")
            self._assignment, self._sources = demand, sources
        # Routes and sync rows are separable per expert, so only the rows
        # whose counts changed are re-indexed, re-probed and (for an
        # unchanged demand) re-routed.  Unchanged rows' sync groups are
        # already in the profile's BPS cache, so probing the changed rows
        # in ascending expert order matches the reference path's full
        # ascending pass.
        replicas = placement.replica_counts()
        cold = self._ptr is None or self._index_shape != counts.shape
        if cold:
            self._expert, self._gpu, self._count, self._ptr = HolderIndex.of(
                counts
            )
            self._index_shape = counts.shape
            self._sync = np.zeros(num_experts)
            self._arrivals = np.zeros(self._expert.size)
            self._a2a = np.zeros(self._expert.size)
            changed = np.arange(num_experts)
        else:
            # A row is unchanged iff its old entries keep their counts and
            # its replica total is the same (counts are non-negative).
            dirty = replicas != self._replicas
            moved = counts[self._expert, self._gpu] != self._count
            dirty[self._expert[moved]] = True
            changed = np.flatnonzero(dirty)
            if changed.size:
                # Splice the changed rows' entries in among the kept ones;
                # kept entries carry their route stats along, so the
                # re-route below touches the changed rows only.
                keep = np.flatnonzero(~dirty[self._expert])
                rows, cols = np.nonzero(counts[changed])
                fresh = np.zeros(rows.size)
                expert = np.concatenate([self._expert[keep], changed[rows]])
                gpu = np.concatenate([self._gpu[keep], cols])
                order = np.argsort(expert * num_gpus + gpu, kind="stable")
                self._expert, self._gpu = expert[order], gpu[order]
                self._count = counts[self._expert, self._gpu]
                self._arrivals = np.concatenate(
                    [self._arrivals[keep], fresh]
                )[order]
                self._a2a = np.concatenate([self._a2a[keep], fresh])[order]
                self._ptr = np.searchsorted(
                    self._expert, np.arange(num_experts + 1)
                )
        if changed.size:
            self._keys = self._expert * num_gpus + self._gpu
            for expert_id in changed:
                self._sync[expert_id] = self._cost_model.group_sync_time(
                    self._gpu[self._ptr[expert_id] : self._ptr[expert_id + 1]]
                )
        self._replicas = replicas
        # A new demand re-routes every row, a placement change only the
        # changed ones.  Either way each row's entries stay GPU-ascending
        # and every per-row sum adds in the same order, so the spliced
        # stats are bit-identical to a cold rebase's.
        route = changed if same_demand else np.arange(num_experts)
        if route.size:
            row, index, _ = self._base_rows(route)
            self._arrivals[index], self._a2a[index] = self._route(
                route, row, self._gpu[index], self._count[index]
            )
        self._placement = placement
        self._placement_version = placement.version
        self._state_version = self._cost_model.state_version
        self._eff_tps = self._cost_model.effective_tps()
        sync = self._sync[self._expert]
        self._contrib = (
            self._arrivals / self._eff_tps[self._gpu] + self._a2a + sync
        )
        self._base_per_gpu = self._per_gpu(
            self._gpu, self._arrivals, self._a2a, sync, self._eff_tps
        )
        self._base_time = float(self._base_per_gpu.max())
        self.rebases += 1
        return self._base_time

    def _require_base(self, placement: Placement) -> None:
        """Ensure the cached base matches ``placement`` before a batched
        sweep; a stale base is rebuilt (for the assignment of the last
        rebase) and counted as a fallback — the slow path the perf smoke
        gate requires to stay unused."""
        if (
            self._placement is placement
            and self._cost_model.state_version == self._state_version
            and placement.version == self._placement_version
        ):
            return
        self.fallbacks += 1
        if self._assignment is None or self._assignment.shape != (
            placement.num_experts,
            placement.num_gpus,
        ):
            raise SchedulingError(
                "DeltaStepCost has no base for this placement: call "
                "rebase() before querying candidates"
            )
        self.rebase(self._assignment, placement)

    # ------------------------------------------------------------------
    # Candidate pricing (one path for every query shape)
    # ------------------------------------------------------------------
    def _base_rows(
        self, row_expert: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gather the base entries of each row's expert.

        Returns ``(row, index, start)``: the row of every gathered entry,
        its position in the base index, and where each row's run of
        entries starts in the gathered layout.
        """
        first = self._ptr[row_expert]
        lengths = self._ptr[row_expert + 1] - first
        start = np.cumsum(lengths) - lengths
        row = np.repeat(np.arange(row_expert.size), lengths)
        index = first[row] + np.arange(row.size) - start[row]
        return row, index, start

    def _edited_rows(
        self,
        row_expert: np.ndarray,
        edit_row: np.ndarray,
        edit_gpu: np.ndarray,
        edit_delta: np.ndarray,
    ):
        """Base rows with vExpert edits applied, as holder entries.

        Edit ``j`` adds ``edit_delta[j]`` vExperts of row ``edit_row[j]``'s
        expert on ``edit_gpu[j]`` (at most one edit per row and device).
        Returns ``(base_row, base_index, row, gpu, count)``: the rows'
        base entries, then the edited entries — the base entries with
        adjusted counts (possibly zero) in the same order, followed by one
        new entry per edit landing on a device the expert did not hold.
        """
        base_row, index, start = self._base_rows(row_expert)
        gpu = self._gpu[index]
        count = self._count[index].copy()
        keys = row_expert[edit_row] * self._assignment.shape[1] + edit_gpu
        pos = np.searchsorted(self._keys, keys)
        pos = np.minimum(pos, self._keys.size - 1)
        found = self._keys[pos] == keys
        hit = edit_row[found]
        count[start[hit] + pos[found] - self._ptr[row_expert[hit]]] += (
            edit_delta[found]
        )
        row = np.concatenate([base_row, edit_row[~found]])
        gpu = np.concatenate([gpu, edit_gpu[~found]])
        count = np.concatenate([count, edit_delta[~found]])
        if (count < 0).any():
            raise SchedulingError(
                "candidate removes a vExpert its expert does not hold"
            )
        return base_row, index, row, gpu, count

    def _route_candidates(
        self,
        num_cands: int,
        row_cand: np.ndarray,
        row_expert: np.ndarray,
        entries: tuple,
    ) -> "CandidateBatch":
        """Route every candidate's changed rows in one pass.

        Row ``r`` replaces expert ``row_expert[r]``'s base row in candidate
        ``row_cand[r]`` (of ``num_cands``); rows are ordered by candidate,
        then ascending expert -- the reference evaluator's AllReduce probe
        order.  ``entries`` is :meth:`_edited_rows`' output.  The sync
        probes and the Eq. 5 max wait for :meth:`CandidateBatch.times`.
        """
        _, _, row, gpu, count = entries
        arrivals, a2a = self._route(row_expert, row, gpu, count)
        return CandidateBatch(
            self,
            num_cands,
            row_cand,
            row_expert,
            entries,
            arrivals / self._eff_tps[gpu] + a2a,
        )

    def _finish(self, batch: "CandidateBatch", lo: int, hi: int) -> np.ndarray:
        """Eq. 5 time of candidates ``lo:hi`` of a routed batch.

        Probes the AllReduce groups of the range's flipped rows in row
        order, then takes each candidate's max over the base per-GPU times
        with its replaced rows' old contributions scattered out and the
        new ones scattered in.
        """
        if hi <= lo:
            return np.zeros(0)
        base_row, base_index, row_all, gpu_all, count_all = batch.entries
        num_base = base_row.size
        # The range's rows, and their entries: the (row-sorted) base
        # entries first, then the range's new entries in edit order.
        r0, r1 = np.searchsorted(batch.row_cand, [lo, hi])
        b0, b1 = np.searchsorted(base_row, [r0, r1])
        new = np.flatnonzero(
            (row_all[num_base:] >= r0) & (row_all[num_base:] < r1)
        )
        take = np.concatenate([np.arange(b0, b1), num_base + new])
        row = row_all[take] - r0
        gpu = gpu_all[take]
        contrib = batch.contrib[take]
        if self._grad_bytes:
            # Membership (and hence the sync group) changes only where an
            # entry gained its first or lost its last copy; other rows
            # reuse the base pricing without touching the probe stream.
            member = count_all[take] > 0
            row_expert = batch.row_expert[r0:r1]
            num_rows = row_expert.size
            flips = np.bincount(
                row, weights=member != (take < num_base), minlength=num_rows
            )
            row_sync = self._sync[row_expert].copy()
            if flips.any():
                order = np.argsort(row, kind="stable")
                bounds = np.searchsorted(row[order], np.arange(num_rows + 1))
                for r in np.flatnonzero(flips):
                    span = order[bounds[r] : bounds[r + 1]]
                    row_sync[r] = self._cost_model.group_sync_time(
                        gpu[span][member[span]]
                    )
            contrib += row_sync[row] * member
        num_gpus = self._base_per_gpu.size
        per_gpu = np.empty((hi - lo, num_gpus))
        per_gpu[:] = self._base_per_gpu
        row_cand = batch.row_cand[r0:r1] - lo
        old = base_index[b0:b1]
        # Old contributions out first, then the new ones in.
        np.add.at(
            per_gpu.reshape(-1),
            np.concatenate(
                [
                    row_cand[base_row[b0:b1] - r0] * num_gpus + self._gpu[old],
                    row_cand[row] * num_gpus + gpu,
                ]
            ),
            np.concatenate([-self._contrib[old], contrib]),
        )
        times = per_gpu.max(axis=1)
        self.evaluations += hi - lo
        if self._audit:
            self._audit_candidates(times, lo, batch)
        return times

    def _paired_rows(
        self, expert_a: np.ndarray, expert_b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Interleave two changed experts per candidate, ascending expert.

        Returns ``(row_cand, row_expert, row_of_a)``: candidate ``i`` owns
        rows ``2i`` and ``2i + 1``; ``row_of_a[i]`` is the one holding
        ``expert_a[i]`` (the other holds ``expert_b[i]``).
        """
        num = expert_a.size
        a_first = expert_a < expert_b
        row_of_a = 2 * np.arange(num) + ~a_first
        row_expert = np.empty(2 * num, dtype=np.int64)
        row_expert[row_of_a] = expert_a
        row_expert[row_of_a ^ 1] = expert_b
        return np.repeat(np.arange(num), 2), row_expert, row_of_a

    # ------------------------------------------------------------------
    # What-if queries
    # ------------------------------------------------------------------
    def pair_candidates(
        self,
        placement: Placement,
        expand: np.ndarray | int,
        shrink: np.ndarray | int,
        gpus: np.ndarray | int,
    ) -> "CandidateBatch":
        """Route (Shrink ``shrink[i]``@``gpus[i]``, Expand
        ``expand[i]``@``gpus[i]``) candidates in one pass.

        Scalars broadcast against the arrays.  ``placement`` must be the
        *unmodified* base placement; each candidate mutation (one vExpert
        of the shrink expert replaced by one of the expand expert on the
        same GPU) is applied arithmetically to the cached rows, never to
        the placement.  Returns the routed batch; its
        :meth:`CandidateBatch.times` finishes a contiguous range of
        candidates, so a search can price a whole round's candidates at
        once yet probe and compare only the ranges it reaches.
        """
        expand, shrink, gpus = (
            a.ravel()
            for a in np.broadcast_arrays(
                *(np.asarray(v, dtype=np.int64) for v in (expand, shrink, gpus))
            )
        )
        if (expand == shrink).any():
            raise SchedulingError("expand and shrink experts must differ")
        num = gpus.size
        if num == 0:
            return CandidateBatch(self, 0, None, None, None, None)
        self._require_base(placement)
        row_cand, row_expert, row_of_expand = self._paired_rows(expand, shrink)
        entries = self._edited_rows(
            row_expert,
            np.concatenate([row_of_expand, row_of_expand ^ 1]),
            np.concatenate([gpus, gpus]),
            np.repeat([1, -1], num),
        )
        return self._route_candidates(num, row_cand, row_expert, entries)

    def exchange_candidate_times(
        self,
        placement: Placement,
        pairs: np.ndarray,
    ) -> np.ndarray:
        """Batch-score vExpert exchanges (the Migrate planner's sweep).

        ``pairs`` is an integer matrix ``(candidates, 4)`` of
        ``(expert_a, gpu_a, expert_b, gpu_b)`` rows, each describing one
        exchange of a vExpert of ``expert_a``@``gpu_a`` with one of
        ``expert_b``@``gpu_b``.  The caller guarantees validity (both
        cells hold a vExpert, the experts differ, the GPUs differ);
        ``placement`` must be the unmodified base placement — candidates
        are applied arithmetically to the cached rows, never to it.

        Returns the modelled step time per candidate.  Replica groups that
        a candidate leaves unchanged reuse the base sync pricing; new
        groups are probed in candidate order, ascending expert within a
        candidate — the same first-seen order as the reference evaluator.
        """
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.size == 0:
            return np.zeros(0)
        self._require_base(placement)
        ea, ga, eb, gb = pairs.T
        row_cand, row_expert, row_a = self._paired_rows(ea, eb)
        row_b = row_a ^ 1
        entries = self._edited_rows(
            row_expert,
            np.concatenate([row_a, row_a, row_b, row_b]),
            np.concatenate([ga, gb, gb, ga]),
            np.repeat([-1, 1, -1, 1], pairs.shape[0]),
        )
        return self._route_candidates(
            pairs.shape[0], row_cand, row_expert, entries
        ).times()

    # ------------------------------------------------------------------
    # Full recomputation (audit)
    # ------------------------------------------------------------------
    def _full_time(self, counts: np.ndarray) -> float:
        """Price a count matrix from scratch through the same kernel,
        against the device pool of the last rebase."""
        expert, gpu = np.nonzero(counts)
        arrivals, a2a = self._route(
            np.arange(counts.shape[0]), expert, gpu, counts[expert, gpu]
        )
        sync = np.array(
            [
                self._cost_model.group_sync_time(np.flatnonzero(row))
                for row in counts
            ]
        )
        return float(
            self._per_gpu(gpu, arrivals, a2a, sync[expert], self._eff_tps).max()
        )

    def _base_counts(self) -> np.ndarray:
        """Dense count matrix of the cached base (audit only)."""
        counts = np.zeros(self._assignment.shape, dtype=np.int64)
        counts[self._expert, self._gpu] = self._count
        return counts

    def _audit_candidates(
        self, times: np.ndarray, lo: int, batch: "CandidateBatch"
    ) -> None:
        """Cross-check finished candidates ``lo:lo + len(times)`` of a
        batch against a full recompute each."""
        _, _, row, gpu, count = batch.entries
        for cand, claimed in enumerate(times, start=lo):
            counts = self._base_counts()
            rows = np.flatnonzero(batch.row_cand == cand)
            counts[batch.row_expert[rows]] = 0
            mine = np.isin(row, rows)
            counts[batch.row_expert[row[mine]], gpu[mine]] = count[mine]
            self._audit_check(float(claimed), counts)

    def _audit_check(self, claimed: float, counts: np.ndarray) -> None:
        """Cross-check a delta evaluation against a full recomputation."""
        full = self._full_time(counts)
        if not np.isclose(claimed, full, rtol=self.AUDIT_RTOL, atol=0.0):
            raise SchedulingError(
                f"delta audit: incremental time {claimed!r} != full "
                f"recomputation {full!r}"
            )


class CandidateBatch:
    """What-if candidates routed in one pass, finished range by range.

    Built by :meth:`DeltaStepCost.pair_candidates` (and internally by the
    other query shapes).  Routing is AllReduce-free, so routing candidates
    a search may never reach costs no probe; :meth:`times` finishes one
    contiguous range -- sync probes in row order, then Eq. 5's max -- and
    counts it in :attr:`DeltaStepCost.evaluations`.  Ranges exist only to
    keep the probe order, so when the cost model has no gradient sync to
    probe (inference-shaped steps) the first :meth:`times` call finishes
    the whole batch, counts all of it, and later calls slice that result;
    each candidate's time is the same either way.  Finish a batch before
    the evaluator's next rebase.
    """

    def __init__(
        self,
        delta: DeltaStepCost,
        num_cands: int,
        row_cand: np.ndarray | None,
        row_expert: np.ndarray | None,
        entries: tuple | None,
        contrib: np.ndarray | None,
    ) -> None:
        self._delta = delta
        self.num_cands = num_cands
        self.row_cand = row_cand
        self.row_expert = row_expert
        self.entries = entries
        # Each edited entry's Eq. 5 contribution before AllReduce.
        self.contrib = contrib
        self.rebases = delta.rebases
        # Every candidate's time, once finished in one pass (probe-free
        # cost models only).
        self._times: np.ndarray | None = None

    def __len__(self) -> int:
        return self.num_cands

    def times(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Modelled step times of candidates ``lo:hi`` (default: all)."""
        hi = self.num_cands if hi is None else hi
        if not 0 <= lo <= hi <= self.num_cands:
            raise SchedulingError(
                f"candidate range [{lo}, {hi}) outside [0, {self.num_cands})"
            )
        if self.rebases != self._delta.rebases:
            raise SchedulingError(
                "candidate batch outlived its base: finish it before the "
                "next rebase"
            )
        if self._delta._grad_bytes:
            return self._delta._finish(self, lo, hi)
        if self._times is None:
            self._times = self._delta._finish(self, 0, self.num_cands)
        return self._times[lo:hi].copy()
