"""Background Migrate pass: cost-driven replica re-location.

After the Expand/Shrink loop, the Scheduler "turns to the Migrate operation
to reduce the synchronization cost and continuously optimizes it at backend"
(Algorithm 1, line 9). Migrate exchanges the model states of two vExperts,
so it re-shapes *where* replicas live without changing how many each expert
owns.

Two effects compete and are both captured by the full cost model (Eq. 5):

* **sync** — a replica group spanning nodes pays AllReduce over the slow
  inter-node fabric; consolidating the group intra-node cuts that cost;
* **All-to-All** — the router is locality-first, so spreading a hot
  expert's replicas across nodes lets each node absorb its own tokens
  locally; over-consolidating funnels traffic through one node's NICs.

Every candidate exchange is therefore evaluated on the *total* modelled
step time for the current assignment, not the sync term alone. Candidates
come from two sources: replicas of experts with scattered (multi-node)
groups, and replicas residing on the most-loaded GPUs.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.cluster.profiler import ClusterProfile
from repro.cluster.topology import ClusterTopology
from repro.config import (
    HIERARCHICAL_AUTO_THRESHOLD,
    HIERARCHICAL_ESCALATION_MARGIN,
    HIERARCHICAL_SCORE_TOP_K,
    resolve_placement_search,
)
from repro.core.cost_model import MemoizedStepCost, MoECostModel
from repro.core.delta import DeltaStepCost, HolderIndex
from repro.core.placement import Placement
from repro.core.primitives import Expand, Migrate, PlacementAction, Shrink
from repro.core.router import FlexibleTokenRouter
from repro.exceptions import ElasticityError, PlacementError, SchedulingError


class MigrationPlanner:
    """Greedy full-cost replica re-location over replica groups.

    Args:
        cost_model: Profiled cost model (Eqs. 5, 7-9).
        topology: Cluster locality structure.
        max_moves: Upper bound on moves proposed per pass, bounding the
            background adjustment traffic per step.
        max_candidates: Number of (expert, source GPU) candidates examined
            per move, bounding the search cost.
        min_replicas: Distinct-device floor every expert must keep after a
            move (1 in the paper's setting; 2 in elastic runs so a single
            device failure never orphans an expert).
        use_delta: Score candidate exchanges incrementally through
            :class:`~repro.core.delta.DeltaStepCost` and the placement
            trial journal (default). ``False`` restores the
            copy-per-candidate full-recompute reference path.
        memo: Optional shared :class:`MemoizedStepCost`. When provided,
            reference-path evaluations (notably the per-pass baseline
            ``step_time(assignment, placement)``, which re-prices the
            exact configuration the Policy Maker just scored) go through
            the shared cache under the ``"migration"`` phase instead of
            re-routing and re-pricing from scratch.
        placement_search: ``"flat"`` (default — every source is paired
            with the globally least-loaded devices and scored in one
            sweep), ``"hierarchical"`` (each source is paired with the
            least-loaded devices of its *own node* first; the full
            cross-cluster sweep is expanded only when no intra-node
            candidate improves) or ``"auto"`` (hierarchical above
            :data:`~repro.config.HIERARCHICAL_AUTO_THRESHOLD` devices).
            Hierarchical requires the delta path: an explicit
            ``"hierarchical"`` with ``use_delta=False`` raises
            :class:`~repro.exceptions.SchedulingError`, while ``"auto"``
            quietly runs flat.
        delta: Optional shared :class:`~repro.core.delta.DeltaStepCost`.
            The Scheduler passes the Policy Maker's evaluator so the two
            planners rebase the same per-round base once between them —
            the migration pass then re-prices only the experts the
            policy's actions touched. Ignored when ``use_delta`` is
            ``False``.
    """

    def __init__(
        self,
        cost_model: MoECostModel,
        topology: ClusterTopology,
        max_moves: int = 2,
        max_candidates: int = 6,
        min_replicas: int = 1,
        use_delta: bool = True,
        memo: MemoizedStepCost | None = None,
        placement_search: str = "flat",
        delta: DeltaStepCost | None = None,
    ) -> None:
        if max_moves < 0:
            raise SchedulingError("max_moves must be >= 0")
        if max_candidates < 1:
            raise SchedulingError("max_candidates must be >= 1")
        if min_replicas < 1:
            raise SchedulingError("min_replicas must be >= 1")
        self._cost_model = cost_model
        self._topology = topology
        self._max_moves = max_moves
        self._max_candidates = max_candidates
        self._min_replicas = min_replicas
        self._use_delta = use_delta
        if not use_delta:
            self._delta = None
        elif delta is not None:
            self._delta = delta
        else:
            self._delta = DeltaStepCost(cost_model)
        self._router = FlexibleTokenRouter()
        self._memo = memo
        resolved = resolve_placement_search(
            topology.num_gpus, placement_search
        )
        if placement_search == "hierarchical" and not use_delta:
            raise SchedulingError(
                "the hierarchical placement search needs the delta path "
                "(use_delta=True)"
            )
        # Auto falls back to flat on the reference path.
        self._hierarchical = resolved == "hierarchical" and use_delta
        self._gpus_per_node = topology.config.gpus_per_node
        # Coarse-to-fine scoring only pays off where exact scoring is
        # expensive; small fabrics keep pricing every candidate exactly.
        self._proxy_prune = (
            self._hierarchical
            and topology.num_gpus > HIERARCHICAL_AUTO_THRESHOLD
        )

    @property
    def delta(self) -> DeltaStepCost | None:
        """The incremental evaluator (``None`` on the reference path)."""
        return self._delta

    @property
    def uses_delta(self) -> bool:
        return self._use_delta

    def step_time(self, assignment: np.ndarray, placement: Placement) -> float:
        if self._memo is not None:
            return self._memo.step_time(assignment, placement, phase="migration")
        plan = self._router.route_fractional(assignment, placement)
        return self._cost_model.step_time(plan, placement)

    def plan(
        self, assignment: np.ndarray, placement: Placement
    ) -> list[PlacementAction]:
        """Propose up to ``max_moves`` exchanges strictly improving Eq. 5.

        The placement is *not* modified; the scheduler applies the returned
        actions through its adjustment queue.  The first search reads the
        caller's placement directly (:meth:`_best_move` never mutates its
        argument); only when it finds a move is the placement copied, and
        every found move is applied -- and so checked -- on that copy
        before the next search.
        """
        assignment = np.asarray(assignment)
        actions: list[PlacementAction] = []
        trial = placement
        for _ in range(self._max_moves):
            move = self._best_move(assignment, trial)
            if move is None:
                break
            if trial is placement:
                # Copy on the first move: most passes find none, and the
                # first search only reads the caller's placement.
                trial = placement.copy()
            move.apply(trial)
            actions.append(move)
        return actions

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _per_replica_loads(
        self, assignment: np.ndarray, index: HolderIndex
    ) -> np.ndarray:
        """Per-vExpert token load of every expert.

        The delta path reads the expert loads off the evaluator's last
        rebase (of ``assignment``) instead of re-summing the matrix.
        """
        if self._delta is not None:
            expert_loads = self._delta.expert_loads
        else:
            expert_loads = assignment.sum(axis=1).astype(float)
        replicas = np.bincount(
            index.expert, weights=index.count, minlength=expert_loads.size
        )
        return np.divide(
            expert_loads, replicas, out=np.zeros_like(expert_loads),
            where=replicas > 0,
        )

    def _weighted_gpu_loads(
        self, per_replica: np.ndarray, placement: Placement
    ) -> np.ndarray:
        """Per-GPU loads, divided by dynamic device speed when elastic.

        A straggler running at half speed takes twice the wall-clock per
        token, so time-weighting surfaces it as the most loaded device
        even when raw token counts are balanced.
        """
        gpu_loads = placement.counts_view.T.astype(float) @ per_replica
        state = self._cost_model.cluster_state
        if state is not None:
            gpu_loads = gpu_loads / state.speed_view()
        return gpu_loads

    def _candidate_sources(
        self,
        per_replica: np.ndarray,
        placement: Placement,
        gpu_loads: np.ndarray,
        index: HolderIndex,
    ) -> list[tuple[int, int]]:
        """(expert, gpu) pairs worth trying to move, most promising first."""
        # Source kind 1: replicas of sync-scattered experts, read off the
        # holder index — an expert is scattered iff its holders'
        # (node-major) node ids are not all equal; its (expert, gpu) pairs
        # come out in expert- then gpu-ascending order.
        nodes = index.gpu // self._gpus_per_node
        first = index.ptr[:-1][np.diff(index.ptr) > 0]
        spread = np.zeros(per_replica.size, dtype=bool)
        spread[index.expert[first]] = np.maximum.reduceat(
            nodes, first
        ) > np.minimum.reduceat(nodes, first)
        scattered = spread[index.expert]
        experts = index.expert[scattered]
        gpus = index.gpu[scattered]

        # Source kind 2: replicas living on the most loaded GPUs.
        extra: list[tuple[int, int]] = []
        for gpu in np.argsort(-gpu_loads)[:2]:
            for expert in placement.experts_on(int(gpu)):
                extra.append((expert, int(gpu)))
        if extra:
            experts = np.concatenate([experts, [e for e, _ in extra]])
            gpus = np.concatenate([gpus, [g for _, g in extra]])

        # Stable sort by load keeps the legacy tie order: scattered pairs
        # (expert- then gpu-ascending) ahead of the hot-GPU pairs.
        order = np.argsort(-per_replica[experts], kind="stable")
        seen: set[tuple[int, int]] = set()
        unique: list[tuple[int, int]] = []
        for i in order:
            key = (int(experts[i]), int(gpus[i]))
            if key not in seen:
                seen.add(key)
                unique.append(key)
                if len(unique) == self._max_candidates:
                    break
        return unique

    def _candidate_targets(self, gpu_loads: np.ndarray) -> list[int]:
        """Live GPUs worth moving a replica to: least (time-)loaded first."""
        live = self._cost_model.live_mask()
        order = np.argsort(gpu_loads)
        return order[live[order]][:4].tolist()

    def _node_targets(
        self,
        placement: Placement,
        gpu_loads: np.ndarray,
        expert: int,
        src: int,
    ) -> list[int]:
        """Least-loaded live GPUs of ``expert``'s home node group.

        The hierarchical sweep's intra-node candidate pool.  The home
        node is where the expert keeps most of its replicas, so for a
        sync-scattered source the pool proposes exactly the exchanges
        that pull the stray replica into the group's node — the move that
        shrinks the group's node span and with it the AllReduce cost
        (same-node shuffles leave the span, and hence the sync term,
        untouched).  An O(P log P) scan of one node instead of the
        O(G log G) cluster-wide sort, and a pool of two devices instead
        of four — the point of the intra-node phase is a small, usually
        sufficient batch, with the cross-cluster sweep as the fallback.
        """
        per_node = self._gpus_per_node
        replicas = placement.counts_view[expert]
        node_counts = replicas.reshape(-1, per_node).sum(axis=1)
        lo = int(node_counts.argmax()) * per_node
        live = self._cost_model.live_mask()[lo : lo + per_node]
        order = np.argsort(gpu_loads[lo : lo + per_node])
        return [int(lo + g) for g in order if live[g] and lo + g != src][:2]

    def _evaluate_exchange(
        self, assignment: np.ndarray, placement: Placement, action: Migrate
    ) -> float | None:
        """Reference-path evaluation of one exchange: copy the placement,
        apply, re-route everything. Returns ``None`` if the action is
        invalid or would consolidate below the replication floor.

        (The delta path never takes this road — it batch-scores every
        exchange of a pass through
        :meth:`DeltaStepCost.exchange_candidate_times`.)
        """
        candidate = placement.copy()
        try:
            action.apply(candidate)
        except PlacementError:
            return None
        if self._below_floor(candidate, action):
            return None
        return self.step_time(assignment, candidate)

    def _below_floor(self, placement: Placement, action: Migrate) -> bool:
        """Whether the applied exchange consolidated either expert below
        the distinct-device replication floor."""
        return self._min_replicas > 1 and (
            len(placement.gpus_of(action.expert_a)) < self._min_replicas
            or len(placement.gpus_of(action.expert_b)) < self._min_replicas
        )

    def _expand_exchanges(
        self,
        placement: Placement,
        expansions: list[tuple[int, int, list[int]]],
        index: HolderIndex,
    ) -> np.ndarray:
        """Candidate exchanges in search order, pre-validated.

        ``expansions`` holds ``(expert, source gpu, destination pool)``
        triples — the flat sweep pairs every source with the global
        least-loaded pool, the hierarchical intra-node phase with each
        source's node-local pool.  Expansion is lazy by construction: the
        cross-cluster candidate list is never materialized unless this
        method is called with it.

        Returns an ``(N, 4)`` integer array of ``(expert_a, gpu_a,
        expert_b, gpu_b)`` rows: per ``(source, destination)`` pair in
        pool order, one row per co-resident of the destination in
        ascending expert order, so each pair's rows form one contiguous
        run.  The co-residents of every destination come from one scan
        of the pools' count columns.  Validity (both cells occupied,
        distinct experts/GPUs) is guaranteed by construction; the
        distinct-device replication floor is checked arithmetically on
        the base counts so no candidate ever needs a placement mutation
        just to be rejected.
        """
        pair = np.array(
            [
                (expert, src, dst)
                for expert, src, targets in expansions
                for dst in targets
                if dst != src
            ],
            dtype=np.int64,
        ).reshape(-1, 3)
        counts = placement.counts_view
        dsts, column = np.unique(pair[:, 2], return_inverse=True)
        # Co-residents of each distinct destination, destination-major.
        held, residents = np.nonzero(counts[:, dsts].T)
        first = np.searchsorted(held, np.arange(dsts.size + 1))
        lengths = np.diff(first)[column]
        row = np.repeat(np.arange(len(pair)), lengths)
        offset = np.arange(row.size) - (np.cumsum(lengths) - lengths)[row]
        partner = residents[first[column][row] + offset]
        expert, src, dst = pair[row].T
        keep = partner != expert
        if self._min_replicas > 1:
            distinct = np.diff(index.ptr)
            after_expert = (
                distinct[expert]
                - (counts[expert, src] == 1)
                + (counts[expert, dst] == 0)
            )
            after_partner = (
                distinct[partner]
                - (counts[partner, dst] == 1)
                + (counts[partner, src] == 0)
            )
            # Drop moves consolidating either expert below the floor.
            keep &= (after_expert >= self._min_replicas) & (
                after_partner >= self._min_replicas
            )
        return np.stack([expert, src, partner, dst], axis=1)[keep]

    def _prune_by_proxy(
        self,
        pairs: np.ndarray,
        per_replica: np.ndarray,
        gpu_loads: np.ndarray,
        index: HolderIndex,
    ) -> np.ndarray:
        """Coarse level of the two-level scoring: O(1) proxy per pair.

        Exact pricing of an exchange is O(G) (full per-GPU re-aggregation
        through the delta evaluator), so at datacenter scale the
        hierarchical search first ranks (source replica, destination)
        pairs by the post-move load of the two touched devices — the
        dominant cost term of a migration — and prices only the pairs
        covering the
        :data:`~repro.config.HIERARCHICAL_SCORE_TOP_K` most promising
        candidates exactly.  Two effects the load proxy cannot see keep
        their exact evaluation regardless of rank: the partner choice
        (which co-resident gets displaced is decided by sync-group and
        All-to-All effects, so every partner of a surviving pair is
        priced), and node-span shrinkage (a pair whose move contracts the
        expert's replica group onto fewer nodes is a synchronization win
        invisible to device loads, so such pairs are always priced).
        Survivors keep their original search order.
        """
        if not self._proxy_prune or len(pairs) <= HIERARCHICAL_SCORE_TOP_K:
            return pairs
        # One group per (expert_a, gpu_a, gpu_b): a contiguous run of rows
        # (see _expand_exchanges), groups in search order.
        pair = pairs[:, [0, 1, 3]]
        start = np.flatnonzero(
            np.r_[True, (pair[1:] != pair[:-1]).any(axis=1)]
        )
        sizes = np.diff(np.r_[start, len(pairs)])
        experts, src, dst = pair[start].T
        load = per_replica[experts]
        proxy = np.maximum(gpu_loads[src] - load, gpu_loads[dst] + load)
        per_node = self._gpus_per_node
        span_delta = (
            self._node_replicas(index, experts, dst // per_node) == 0
        ).astype(int) - (
            self._node_replicas(index, experts, src // per_node) == 1
        ).astype(int)
        # Walking the groups by proxy, every group is priced until the
        # priced rows reach the top-k budget; after that only the
        # span-shrinking ones are.
        order = np.argsort(proxy, kind="stable")
        before = np.cumsum(sizes[order]) - sizes[order]
        chosen = np.empty(start.size, dtype=bool)
        chosen[order] = (before < HIERARCHICAL_SCORE_TOP_K) | (
            span_delta[order] < 0
        )
        return pairs[np.repeat(chosen, sizes)]

    def _node_replicas(
        self, index: HolderIndex, experts: np.ndarray, nodes: np.ndarray
    ) -> np.ndarray:
        """vExperts ``experts[i]`` keeps on node ``nodes[i]``, per ``i``.

        An expert's entries are GPU-sorted and GPUs node-major, so one
        node's entries are a contiguous run found by binary search.
        """
        per_node = self._gpus_per_node
        num_gpus = self._topology.num_gpus
        keys = index.expert * num_gpus + index.gpu
        first = experts * num_gpus + nodes * per_node
        lo = np.searchsorted(keys, first)
        hi = np.searchsorted(keys, first + per_node)
        totals = np.concatenate([[0], np.cumsum(index.count)])
        return totals[hi] - totals[lo]

    def _score_exchanges(
        self,
        placement: Placement,
        pairs: np.ndarray,
        baseline: float,
    ) -> tuple[Migrate, float] | None:
        """Delta-score one batch of exchanges.

        Returns the best strict improvement over ``baseline`` and its
        modelled step time, or ``None`` when nothing in the batch beats
        it.  A later row displaces the running best only when cheaper by
        more than 1e-12, so only rows beating the baseline by that much
        are walked.
        """
        times = self._delta.exchange_candidate_times(placement, pairs)
        best = None
        best_time = baseline
        for i in np.flatnonzero(times < baseline - 1e-12).tolist():
            if times[i] < best_time - 1e-12:
                best, best_time = i, float(times[i])
        if best is None:
            return None
        expert_a, gpu_a, expert_b, gpu_b = pairs[best].tolist()
        return (
            Migrate(
                expert_a=expert_a, gpu_a=gpu_a, expert_b=expert_b, gpu_b=gpu_b
            ),
            best_time,
        )

    def _best_move(
        self, assignment: np.ndarray, placement: Placement
    ) -> Migrate | None:
        if self._delta is not None:
            baseline = self._delta.rebase(assignment, placement)
            index = self._delta.holders
            per_replica = self._per_replica_loads(assignment, index)
            gpu_loads = self._weighted_gpu_loads(per_replica, placement)
            sources = self._candidate_sources(
                per_replica, placement, gpu_loads, index
            )
            intra: tuple[Migrate, float] | None = None
            if self._hierarchical:
                # Two-level sweep: every source tries the least-loaded
                # devices of its own node first — intra-node exchanges
                # consolidate sync groups without touching the inter-node
                # fabric.  An intra-node candidate that clears the
                # escalation margin ends the search; the cross-cluster
                # sweep (the flat search's exact candidate set) is
                # expanded only otherwise, with the intra-node best still
                # in the running — escalation can never miss a move the
                # flat sweep finds, nor drop a better local one.
                intra = self._score_exchanges(
                    placement,
                    self._prune_by_proxy(
                        self._expand_exchanges(
                            placement,
                            [
                                (
                                    expert,
                                    src,
                                    self._node_targets(
                                        placement, gpu_loads, expert, src
                                    ),
                                )
                                for expert, src in sources
                            ],
                            index,
                        ),
                        per_replica,
                        gpu_loads,
                        index,
                    ),
                    baseline,
                )
                if intra is not None and (
                    baseline - intra[1]
                    >= HIERARCHICAL_ESCALATION_MARGIN * baseline
                ):
                    return intra[0]
            targets = self._candidate_targets(gpu_loads)
            best = self._score_exchanges(
                placement,
                self._prune_by_proxy(
                    self._expand_exchanges(
                        placement,
                        [(expert, src, targets) for expert, src in sources],
                        index,
                    ),
                    per_replica,
                    gpu_loads,
                    index,
                ),
                intra[1] if intra is not None else baseline,
            )
            if best is not None:
                return best[0]
            return intra[0] if intra is not None else None
        baseline = self.step_time(assignment, placement)
        best_action = None
        best_time = baseline
        index = HolderIndex.of(placement.counts_view)
        per_replica = self._per_replica_loads(assignment, index)
        gpu_loads = self._weighted_gpu_loads(per_replica, placement)
        targets = self._candidate_targets(gpu_loads)
        for expert, src in self._candidate_sources(
            per_replica, placement, gpu_loads, index
        ):
            for dst in targets:
                if dst == src:
                    continue
                for partner in placement.experts_on(dst):
                    if partner == expert:
                        continue
                    action = Migrate(
                        expert_a=expert, gpu_a=src,
                        expert_b=partner, gpu_b=dst,
                    )
                    time = self._evaluate_exchange(
                        assignment, placement, action
                    )
                    if time is not None and time < best_time - 1e-12:
                        best_time = time
                        best_action = action
        return best_action


# ----------------------------------------------------------------------
# Elastic re-homing (device failure / recovery)
# ----------------------------------------------------------------------
def ensure_evictable(placement: Placement, dead: Sequence[int]) -> None:
    """Raise unless every expert would survive evicting the ``dead`` GPUs.

    An expert whose *every* replica lives on failed devices has lost its
    model states and cannot be rebuilt; the check runs without mutating
    ``placement`` so callers can validate several placements atomically
    before evicting any of them.
    """
    dead = sorted(set(int(g) for g in dead))
    counts = placement.counts
    on_dead = counts[:, dead].sum(axis=1)
    total = placement.replica_counts()
    orphans = np.flatnonzero((on_dead > 0) & (on_dead == total))
    if orphans.size:
        expert = int(orphans[0])
        raise ElasticityError(
            f"expert {expert} lost all {int(total[expert])} of its replicas "
            f"to failed gpu(s) {dead}: its model states are gone and cannot "
            "be re-homed (replicate experts across more devices, or "
            "checkpoint-restore outside this simulation)"
        )


def evict_failed_gpus(
    placement: Placement, dead: Sequence[int]
) -> dict[int, int]:
    """Drop every vExpert hosted by the ``dead`` GPUs, in place.

    Experts with surviving replicas simply lose the dead copies; an
    orphaned expert raises a clear
    :class:`~repro.exceptions.ElasticityError` (see
    :func:`ensure_evictable`) before any mutation.

    Returns:
        Mapping ``expert -> replicas lost``, for the re-homing pass.
    """
    ensure_evictable(placement, dead)
    dead = sorted(set(int(g) for g in dead))
    lost: dict[int, int] = {}
    for gpu in dead:
        for expert in placement.experts_on(gpu):
            n = placement.count(expert, gpu)
            for _ in range(n):
                placement.remove_vexpert(expert, gpu)
            lost[expert] = lost.get(expert, 0) + n
    return lost


def _donor_slot(
    work: Placement, live: Sequence[int], expert: int, min_replicas: int
) -> tuple[int, int] | None:
    """A (donor expert, live GPU) pair whose Shrink frees a slot for
    ``expert`` on a device it does not yet occupy, without dropping the
    donor below the replication floor itself. Prefers the most
    replicated donor (ties to the lowest GPU index)."""
    best: tuple[int, int] | None = None
    best_key: tuple[int, int] | None = None
    for gpu in live:
        if work.count(expert, gpu) > 0:
            continue  # the rescue replica must land on a fresh device
        for donor in work.experts_on(gpu):
            if donor == expert:
                continue
            if work.replicas(donor) - 1 < min_replicas:
                continue
            distinct = len(work.gpus_of(donor))
            if work.count(donor, gpu) == 1:
                distinct -= 1
            if distinct < min_replicas:
                continue
            key = (work.replicas(donor), -gpu)
            if best_key is None or key > best_key:
                best_key, best = key, (donor, gpu)
    return best


def plan_replacements(
    placement: Placement,
    lost: Mapping[int, int],
    live_gpus: Sequence[int],
    profile: ClusterProfile | None = None,
    min_replicas: int = 1,
) -> list[PlacementAction]:
    """Rebuild replicas lost to a failure on the surviving devices.

    For every lost replica, an :class:`~repro.core.primitives.Expand`
    copies the expert's states from a surviving holder to the live GPU
    with the most free slots (ties to the lowest index), preferring
    devices that do not already hold the expert (a packed copy dies with
    its co-resident, so it restores capacity but not fault tolerance).

    When the survivors are slot-full, replicas above the floor simply
    stay lost -- the scheduler's normal Expand/Shrink loop re-optimizes
    counts from there. But an expert left BELOW the ``min_replicas``
    distinct-device floor gets a rescue: a Shrink of the most replicated
    donor frees a slot on a fresh device first, so the next single
    failure cannot orphan the expert.

    The ``placement`` is not modified; callers apply the returned actions
    through their adjustment pipeline.
    """
    if not lost:
        return []
    live = [int(g) for g in live_gpus]
    if not live:
        raise ElasticityError("cannot re-home experts: no live device")
    work = placement.copy()
    actions: list[PlacementAction] = []
    for expert in sorted(lost):
        for _ in range(lost[expert]):
            holders = work.gpus_of(expert)
            candidates = [g for g in live if work.free_slots(g) > 0]
            fresh = [g for g in candidates if g not in holders]
            if not fresh and len(holders) < min_replicas:
                slot = _donor_slot(work, live, expert, min_replicas)
                if slot is not None:
                    donor, gpu = slot
                    shrink = Shrink(expert=donor, gpu=gpu)
                    shrink.apply(work)
                    actions.append(shrink)
                    fresh = [gpu]
                    candidates.append(gpu)
            pool = fresh or candidates
            if not pool:
                break
            dst = max(pool, key=lambda g: (work.free_slots(g), -g))
            if profile is not None:
                src = max(holders, key=lambda h: profile.link_bandwidth(h, dst))
            else:
                src = holders[0]
            action = Expand(expert=expert, gpu=dst, source_gpu=int(src))
            action.apply(work)
            actions.append(action)
    return actions
