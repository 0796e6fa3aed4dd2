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
holder entries for the rebase, all three query shapes and the audit.

Scoring a candidate re-routes only the changed experts' entries and takes
Eq. 5's max over a copy of the base per-GPU times with the changed
experts' old contributions scattered out and their new ones scattered in.
Three query shapes cover the searchers:

* :meth:`pair_candidate_times` — batch-scores every shrink GPU of one
  (Shrink e1, Expand e0) pair in a single vectorized pass (the Policy
  Maker's inner loop);
* :meth:`exchange_candidate_times` — batch-scores every vExpert exchange
  of one Migrate planner pass;
* :meth:`trial_time` — scores an arbitrarily mutated trial placement
  given the set of changed experts; the single-candidate what-if API for
  custom planners, driven through
  :meth:`~repro.core.placement.Placement.trial`.

The evaluator matches :class:`~repro.core.cost_model.MemoizedStepCost` (the
retained, audited reference path) to float tolerance; the equivalence suite
in ``tests/test_delta_cost.py`` and ``tests/test_policy_delta_equivalence.py``
asserts both the times and the resulting scheduling decisions.  Lazily
profiled AllReduce groups are probed in the same first-seen order as
:meth:`~repro.core.cost_model.MoECostModel.sync_times` (ascending expert,
candidates in enumeration order), so noisy profiles stay bit-identical
between the delta and reference paths.

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
        """Index a dense ``(E, G)`` count matrix in one O(E * G) scan."""
        expert, gpu = np.nonzero(counts)
        return cls(
            expert,
            gpu,
            counts[expert, gpu],
            np.searchsorted(expert, np.arange(counts.shape[0] + 1)),
        )


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
    def base_time(self) -> float:
        """Step time of the configuration cached by the last rebase."""
        return self._base_time

    @property
    def holders(self) -> HolderIndex:
        """Holder index of the placement cached by the last rebase.

        Describes that placement only until it next mutates; planners
        read it right after a rebase instead of re-scanning the count
        matrix.
        """
        return HolderIndex(self._expert, self._gpu, self._count, self._ptr)

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

    def _group_sync(self, holders: np.ndarray) -> float:
        """Per-member sync seconds (Eq. 9) of one replica group.

        Prices the group through the profile's lazy AllReduce cache; the
        caller's call order is the probe order.
        """
        if not self._grad_bytes or holders.size < 2:
            return 0.0
        return self._grad_bytes / self._cost_model.profile.allreduce_bps(
            tuple(holders.tolist())
        )

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
        """
        assignment = np.asarray(assignment)
        if assignment.shape != (placement.num_experts, placement.num_gpus):
            raise RoutingError(
                f"assignment shape {assignment.shape} does not match "
                f"placement ({placement.num_experts}, {placement.num_gpus})"
            )
        counts = placement.counts_view
        num_experts, num_gpus = assignment.shape
        same_demand = self._assignment is not None and np.array_equal(
            self._assignment, assignment
        )
        if not same_demand:
            # Snapshot, never alias: the next rebase compares its
            # assignment against this one, which must see the values as
            # passed even if the caller mutates theirs.
            demand = np.array(assignment, dtype=float, order="C")
            if (demand < 0).any():
                raise RoutingError("token counts must be non-negative")
            sources = self._bw.source_rows(demand)
            # A non-finite count makes its row total non-finite.
            if not np.isfinite(sources.totals).all():
                raise RoutingError("token counts must be finite")
            self._assignment, self._sources = demand, sources
        # Sync rows are separable per expert, so only the rows whose
        # counts changed are re-indexed and re-probed.  Unchanged rows'
        # sync groups are already in the profile's BPS cache, so probing
        # the changed rows in ascending expert order matches the
        # reference path's full ascending pass.
        replicas = counts.sum(axis=1)
        if self._ptr is None or self._index_shape != counts.shape:
            changed = np.arange(num_experts)
            keep = np.zeros(0, dtype=np.int64)
            self._expert = self._gpu = keep
            self._sync = np.zeros(num_experts)
        else:
            # A row is unchanged iff its old entries keep their counts and
            # its replica total is the same (counts are non-negative).
            dirty = replicas != self._replicas
            moved = counts[self._expert, self._gpu] != self._count
            dirty[self._expert[moved]] = True
            changed = np.flatnonzero(dirty)
            keep = np.flatnonzero(~dirty[self._expert])
        if changed.size:
            rows, cols = np.nonzero(counts[changed])
            expert = np.concatenate([self._expert[keep], changed[rows]])
            gpu = np.concatenate([self._gpu[keep], cols])
            order = np.argsort(expert * num_gpus + gpu, kind="stable")
            self._expert, self._gpu = expert[order], gpu[order]
            self._count = counts[self._expert, self._gpu]
            self._keys = self._expert * num_gpus + self._gpu
            self._ptr = np.searchsorted(
                self._expert, np.arange(num_experts + 1)
            )
            self._replicas = replicas
            self._index_shape = counts.shape
            for expert_id in changed:
                self._sync[expert_id] = self._group_sync(
                    self._gpu[self._ptr[expert_id] : self._ptr[expert_id + 1]]
                )
        if changed.size or not same_demand:
            # Re-routing every entry is O(E * holders), well under the
            # change scan, so there is no per-row patching to keep exact.
            self._arrivals, self._a2a = self._route(
                np.arange(num_experts), self._expert, self._gpu, self._count
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

    def _base_matches(self, placement: Placement, trial: bool) -> bool:
        """Whether the cached base still describes ``placement``'s base.

        During a trial the version has legitimately advanced past the
        base's (the caller vouches for the changed-expert set); outside a
        trial the versions must agree exactly.
        """
        if self._placement is not placement:
            return False
        if self._cost_model.state_version != self._state_version:
            return False
        return trial or placement.version == self._placement_version

    def _require_base(self, placement: Placement) -> None:
        """Ensure the cached base matches ``placement`` before a batched
        sweep; a stale base is rebuilt (for the assignment of the last
        rebase) and counted as a fallback — the slow path the perf smoke
        gate requires to stay unused."""
        if self._base_matches(placement, trial=False):
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
        Returns ``(base_row, base_index, row, gpu, count, was_holder)``:
        the rows' base entries, then the edited entries — the base
        entries with adjusted counts (possibly zero), followed by one new
        entry per edit landing on a device the expert did not hold.
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
        was_holder = np.arange(row.size) < base_row.size
        return base_row, index, row, gpu, count, was_holder

    def _candidate_times(
        self,
        num_cands: int,
        row_cand: np.ndarray,
        row_expert: np.ndarray,
        base_row: np.ndarray,
        base_index: np.ndarray,
        row: np.ndarray,
        gpu: np.ndarray,
        count: np.ndarray,
        was_holder: np.ndarray,
    ) -> np.ndarray:
        """Eq. 5 time of every candidate from its changed rows' entries.

        Row ``r`` replaces expert ``row_expert[r]``'s base row in candidate
        ``row_cand[r]`` (of ``num_cands``); rows are ordered by candidate, then ascending
        expert — the reference evaluator's AllReduce probe order.  Each
        candidate's per-GPU times are the base's with the replaced rows'
        old contributions scattered out and the new ones scattered in.
        """
        num_rows = row_expert.size
        arrivals, a2a = self._route(row_expert, row, gpu, count)
        contrib = arrivals / self._eff_tps[gpu] + a2a
        if self._grad_bytes:
            # Membership (and hence the sync group) changes only where an
            # entry gained its first or lost its last copy; other rows
            # reuse the base pricing without touching the probe stream.
            member = count > 0
            flips = np.bincount(
                row, weights=member != was_holder, minlength=num_rows
            )
            row_sync = self._sync[row_expert].copy()
            if flips.any():
                order = np.argsort(row, kind="stable")
                bounds = np.searchsorted(row[order], np.arange(num_rows + 1))
                for r in np.flatnonzero(flips):
                    span = order[bounds[r] : bounds[r + 1]]
                    row_sync[r] = self._group_sync(gpu[span][member[span]])
            contrib += row_sync[row] * member
        num_gpus = self._base_per_gpu.size
        per_gpu = np.empty((num_cands, num_gpus))
        per_gpu[:] = self._base_per_gpu
        # Old contributions out first, then the new ones in.
        np.add.at(
            per_gpu.reshape(-1),
            np.concatenate(
                [
                    row_cand[base_row] * num_gpus + self._gpu[base_index],
                    row_cand[row] * num_gpus + gpu,
                ]
            ),
            np.concatenate([-self._contrib[base_index], contrib]),
        )
        return per_gpu.max(axis=1)

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
    def pair_candidate_times(
        self,
        placement: Placement,
        expand_expert: int,
        shrink_expert: int,
        gpus: np.ndarray,
    ) -> np.ndarray:
        """Batch-score (Shrink ``shrink_expert``@g, Expand
        ``expand_expert``@g) for every g in ``gpus``.

        ``placement`` must be the *unmodified* base placement; the
        candidate mutation (one vExpert of the shrink expert replaced by
        one of the expand expert on the same GPU) is applied arithmetically
        to the cached rows, never to the placement.  Returns the modelled
        step times, one per candidate GPU.
        """
        gpus = np.asarray(gpus, dtype=np.int64)
        if gpus.size == 0:
            return np.zeros(0)
        if expand_expert == shrink_expert:
            raise SchedulingError("expand and shrink experts must differ")
        self._require_base(placement)
        num = gpus.size
        row_cand, row_expert, row_of_expand = self._paired_rows(
            np.full(num, expand_expert), np.full(num, shrink_expert)
        )
        entries = self._edited_rows(
            row_expert,
            np.concatenate([row_of_expand, row_of_expand ^ 1]),
            np.concatenate([gpus, gpus]),
            np.repeat([1, -1], num),
        )
        times = self._candidate_times(num, row_cand, row_expert, *entries)
        self.evaluations += num
        if self._audit:
            self._audit_candidates(times, row_cand, row_expert, entries)
        return times

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
        times = self._candidate_times(
            pairs.shape[0], row_cand, row_expert, *entries
        )
        self.evaluations += pairs.shape[0]
        if self._audit:
            self._audit_candidates(times, row_cand, row_expert, entries)
        return times

    def trial_time(
        self, placement: Placement, changed: tuple[int, ...]
    ) -> float:
        """Step time of a trial-mutated placement.

        ``placement`` is the base placement mutated inside an open
        :meth:`~repro.core.placement.Placement.trial`; ``changed`` names
        every expert whose replica row differs from the base (at most a
        handful for any primitive).  Experts outside ``changed`` are
        assumed untouched — that is the caller's contract, checked in
        audit mode.
        """
        if not self._base_matches(placement, trial=True):
            self.fallbacks += 1
            return self._full_time(placement.counts_view)
        row_expert = np.unique(np.asarray(changed, dtype=np.int64))
        # Express each changed row as edits of its base row.
        base_row, base_index, _ = self._base_rows(row_expert)
        rows = placement.counts_view[row_expert]
        diff = rows.copy()
        diff[base_row, self._gpu[base_index]] -= self._count[base_index]
        edit_row, edit_gpu = np.nonzero(diff)
        entries = self._edited_rows(
            row_expert, edit_row, edit_gpu, diff[edit_row, edit_gpu]
        )
        times = self._candidate_times(
            1, np.zeros(row_expert.size, dtype=np.int64), row_expert, *entries
        )
        time = float(times[0])
        self.evaluations += 1
        if self._audit:
            counts = placement.counts_view
            expected = self._base_counts()
            expected[row_expert] = rows
            if not np.array_equal(expected, counts):
                raise SchedulingError(
                    "delta audit: changed-expert set does not cover the "
                    "trial mutations (caller contract violated)"
                )
            self._audit_check(time, counts)
        return time

    # ------------------------------------------------------------------
    # Full recomputation (fallback + audit)
    # ------------------------------------------------------------------
    def _full_time(
        self, counts: np.ndarray, eff_tps: np.ndarray | None = None
    ) -> float:
        """Price a count matrix from scratch through the same kernel.

        Used when the cached base cannot answer (stale device pool or a
        foreign placement object; priced against the live pool) and by
        the audit.  Requires the assignment of the last rebase; without
        one the evaluator cannot answer at all.
        """
        if self._assignment is None:
            raise SchedulingError(
                "DeltaStepCost has no base: call rebase() before querying"
            )
        if eff_tps is None:
            eff_tps = self._cost_model.effective_tps()
        expert, gpu = np.nonzero(counts)
        arrivals, a2a = self._route(
            np.arange(counts.shape[0]), expert, gpu, counts[expert, gpu]
        )
        sync = np.array(
            [self._group_sync(np.flatnonzero(row)) for row in counts]
        )
        return float(
            self._per_gpu(gpu, arrivals, a2a, sync[expert], eff_tps).max()
        )

    def _base_counts(self) -> np.ndarray:
        """Dense count matrix of the cached base (audit only)."""
        counts = np.zeros(self._assignment.shape, dtype=np.int64)
        counts[self._expert, self._gpu] = self._count
        return counts

    def _audit_candidates(self, times, row_cand, row_expert, entries) -> None:
        """Cross-check every batched candidate against a full recompute."""
        _, _, row, gpu, count, _ = entries
        for cand, claimed in enumerate(times):
            counts = self._base_counts()
            rows = np.flatnonzero(row_cand == cand)
            counts[row_expert[rows]] = 0
            mine = np.isin(row, rows)
            counts[row_expert[row[mine]], gpu[mine]] = count[mine]
            self._audit_check(float(claimed), counts)

    def _audit_check(self, claimed: float, counts: np.ndarray) -> None:
        """Cross-check a delta evaluation against a full recomputation."""
        full = self._full_time(counts, self._eff_tps)
        if not np.isclose(claimed, full, rtol=self.AUDIT_RTOL, atol=0.0):
            raise SchedulingError(
                f"delta audit: incremental time {claimed!r} != full "
                f"recomputation {full!r}"
            )
