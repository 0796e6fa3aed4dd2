"""The Policy Maker: vExpert-based scheduling (Algorithm 2).

Given the current token assignment and placement, the Policy Maker proposes
one (Shrink, Expand) pair per call:

1. estimate the modelled step time ``t0`` of the current placement;
2. pick ``e0 = argmax_e cap_e`` (most overloaded per vExpert) and
   ``e1 = argmin_e cap_e`` (most underloaded, must retain >= 1 vExpert);
3. estimate ``t1`` after shrinking ``e1`` and expanding ``e0`` into the
   freed slot;
4. return the pair iff ``t1 < t0`` (optionally charging an amortized share
   of the adjustment transfer cost), else the empty plan.

Because an expert may hold replicas on several GPUs, *which* replica of
``e1`` to shrink matters: every candidate GPU is evaluated and the best one
wins. The Expand's source replica is chosen for cheapest transfer (same GPU
if packing, otherwise the highest-bandwidth peer).

Two evaluation paths score the candidates:

* the **delta path** (default) — one round sweep
  (:meth:`PolicyMaker._sweep_round`) lists every candidate of the round
  in Algorithm 2's order (hot-expert rank, shrink partner, then the
  intra-node and cross-node stages of the hierarchical search) and
  routes them all in one :meth:`~repro.core.delta.DeltaStepCost.pair_candidates`
  pass over the changed experts' replica holders.  It then finishes the
  candidates (AllReduce probes and the Eq. 5 max) wave by wave, up to
  exactly the point the per-pair search would reach: a cross-node stage
  only when its intra-node stage found nothing, the next hot expert only
  when the current one found nothing;
* the **reference path** (``use_delta=False``) — the original
  copy-per-candidate search over the memoized full evaluator, retained as
  the audited specification the delta path is equivalence-tested and
  benchmarked against (``python -m repro perf``).  It has no hierarchical
  mode.

Both paths price the same candidates in the same order and compare with
the same strict inequalities, so they propose identical plans and probe
noisy profiles identically (asserted on seeded scenarios by
``tests/test_policy_delta_equivalence.py`` and pinned for the
hierarchical search by ``tests/test_policy_probe_golden.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.config import resolve_placement_search
from repro.core.cost_model import MemoizedStepCost, MoECostModel
from repro.core.delta import DeltaStepCost, HolderIndex
from repro.core.placement import Placement
from repro.core.primitives import Expand, PlacementAction, Shrink
from repro.core.router import FlexibleTokenRouter
from repro.exceptions import PlacementError, SchedulingError

if TYPE_CHECKING:
    from repro.cluster.topology import ClusterTopology

#: Hottest experts (by per-replica load) a round tries to Expand.
EXPAND_CANDIDATES = 3
#: Least-loaded experts above the replication floor each hot expert may
#: Shrink.
SHRINK_CANDIDATES = 2


@dataclass(frozen=True)
class PolicyDecision:
    """One Policy Maker proposal with its modelled costs."""

    actions: tuple[PlacementAction, ...]
    time_before: float
    time_after: float
    adjustment_time: float

    @property
    def beneficial(self) -> bool:
        return bool(self.actions)


class PolicyMaker:
    """Cost-model-driven greedy placement search.

    Args:
        cost_model: Profiled cost model (Eqs. 5, 7-9).
        router: Router used to materialize candidate placements' traffic.
        adjustment_horizon: Number of steps the one-time adjustment transfer
            cost is amortized over when comparing candidates. ``0`` ignores
            adjustment costs entirely (pure Algorithm 2); the paper notes
            adjustments run concurrently with training, so the default
            charges only a small amortized share.
        min_replicas: Replication floor preserved by Shrink proposals
            (see :attr:`repro.config.SchedulerConfig.min_replicas`).
        use_delta: Score candidates incrementally through
            :class:`~repro.core.delta.DeltaStepCost` (default). ``False``
            restores the full-recompute reference path.
        topology: Cluster topology, required for the hierarchical search's
            node partition. Optional — without it the search is flat.
        placement_search: ``"flat"`` (default — every shrink GPU of a pair
            scored in one sweep), ``"hierarchical"`` (score candidates in
            the hot expert's node group first, escalating to the cross-node
            remainder only when no intra-node candidate beats ``t0``), or
            ``"auto"`` (hierarchical above
            :data:`~repro.config.HIERARCHICAL_AUTO_THRESHOLD` devices).
            Hierarchical needs ``topology`` and the delta path: an
            explicit ``"hierarchical"`` without them raises
            :class:`~repro.exceptions.SchedulingError`, while ``"auto"``
            quietly runs flat.
    """

    def __init__(
        self,
        cost_model: MoECostModel,
        router: FlexibleTokenRouter | None = None,
        adjustment_horizon: int = 25,
        min_replicas: int = 1,
        use_delta: bool = True,
        topology: "ClusterTopology | None" = None,
        placement_search: str = "flat",
    ) -> None:
        if adjustment_horizon < 0:
            raise SchedulingError("adjustment_horizon must be >= 0")
        if min_replicas < 1:
            raise SchedulingError("min_replicas must be >= 1")
        if placement_search not in ("auto", "flat", "hierarchical"):
            raise SchedulingError(
                f"unknown placement_search {placement_search!r}"
            )
        if placement_search == "hierarchical" and (
            topology is None or not use_delta
        ):
            raise SchedulingError(
                "the hierarchical placement search needs a topology and "
                "the delta path (use_delta=True)"
            )
        self._cost_model = cost_model
        self._router = router or FlexibleTokenRouter()
        self._memo = MemoizedStepCost(cost_model, self._router)
        self._use_delta = use_delta
        self._delta = DeltaStepCost(cost_model) if use_delta else None
        self._adjustment_horizon = adjustment_horizon
        self._min_replicas = min_replicas
        num_gpus = int(np.asarray(cost_model.profile.tps).shape[0])
        if placement_search == "auto":
            # Auto falls back to flat where hierarchical cannot run.
            placement_search = resolve_placement_search(num_gpus)
        self._hierarchical = (
            placement_search == "hierarchical"
            and topology is not None
            and use_delta
        )
        # Devices are node-major, so gpu // gpus_per_node is its node id.
        self._gpus_per_node = (
            topology.config.gpus_per_node if topology is not None else 1
        )

    @property
    def cost_model(self) -> MoECostModel:
        return self._cost_model

    @property
    def memo(self) -> MemoizedStepCost:
        """The (placement, load-vector) step-time memo backing the search."""
        return self._memo

    @property
    def delta(self) -> DeltaStepCost | None:
        """The incremental evaluator (``None`` on the reference path)."""
        return self._delta

    @property
    def uses_delta(self) -> bool:
        return self._use_delta

    def estimate_step_time(
        self, assignment: np.ndarray, placement: Placement
    ) -> float:
        """Modelled step time of ``assignment`` under ``placement``.

        Uses the router's continuous relaxation: candidate evaluation only
        needs costs, not integral token counts. Evaluations are memoized on
        the (placement, load-vector) pair, so repeated what-if queries over
        identical configurations replay the cached cost.
        """
        return self._memo.step_time(assignment, placement, phase="policy")

    def make_plan(
        self, assignment: np.ndarray, placement: Placement
    ) -> PolicyDecision:
        """Algorithm 2: propose one (Shrink, Expand) pair or nothing."""
        assignment = np.asarray(assignment)
        if self._use_delta:
            t0 = self._delta.rebase(assignment, placement)
            assignment_key = None
            # The rebase's row totals: bit-identical to re-summing the
            # assignment for integer token counts.
            expert_loads = self._delta.expert_loads
        else:
            assignment_key = MemoizedStepCost.assignment_key(assignment)
            t0 = self._memo.step_time(
                assignment, placement, assignment_key=assignment_key,
                phase="policy",
            )
            expert_loads = assignment.sum(axis=1).astype(float)
        replicas = placement.replica_counts().astype(float)
        caps = expert_loads / replicas

        hot = np.argsort(-caps, kind="stable")[:EXPAND_CANDIDATES]
        # Every hot expert draws its shrink partners from the same
        # ascending-load list; one spare covers excluding the hot expert.
        order_asc = np.argsort(caps, kind="stable")
        shrinkable = order_asc[replicas[order_asc] > self._min_replicas][
            : SHRINK_CANDIDATES + 1
        ]
        if self._use_delta:
            best = self._sweep_round(placement, hot, shrinkable, t0)
        else:
            best = None
            for e0 in hot.tolist():
                for e1 in self._partners(shrinkable, e0):
                    decision = self._best_pair(
                        assignment, placement, e0, e1, t0, assignment_key
                    )
                    if decision is not None and (
                        best is None or decision.time_after < best.time_after
                    ):
                        best = decision
                if best is not None:
                    # Algorithm 2 expands the most overloaded expert; wider
                    # candidates are only a fallback when it cannot improve.
                    break
        if best is None:
            return PolicyDecision((), t0, t0, 0.0)
        return best

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _partners(self, shrinkable: np.ndarray, e0: int) -> list[int]:
        """Shrink partners of hot expert ``e0``: the least-loaded experts
        above the replication floor (1 in the paper's setting, 2 in
        elastic runs so failures never orphan an expert), ``e0`` excluded."""
        return [e for e in shrinkable.tolist() if e != e0][:SHRINK_CANDIDATES]

    def _sweep_round(
        self,
        placement: Placement,
        hot: np.ndarray,
        shrinkable: np.ndarray,
        t0: float,
    ) -> PolicyDecision | None:
        """Delta path: the whole round's (Shrink, Expand) search.

        Enumerates stages in Algorithm 2's order -- hot-expert rank, then
        shrink partner ``e1``, then stage -- and routes every stage's
        candidates (one per shrink GPU) in one delta pass.  A flat pair is
        one stage.  Hierarchical mode splits a pair's shrink GPUs into
        those on nodes already hosting the hot expert ``e0`` (where Expand
        packs or rides NVLink and the freed capacity lands next to the
        overload) and the cross-node remainder, which is priced only when
        no intra-node candidate beats ``t0`` -- so escalation can never
        skip a viable intra-node candidate.

        Candidates are finished (AllReduce probes, Eq. 5 max) in *waves*:
        maximal runs of stages the search always prices.  A cross-node
        stage opens a new wave, and a round stops at the first rank with
        a viable candidate, so exactly the candidates the per-pair loop
        of :meth:`_best_pair` reaches are finished, in its order -- noisy
        profiles therefore draw identical AllReduce values (a cost model
        without gradient sync finishes the whole batch on the first
        wave; see :class:`~repro.core.delta.CandidateBatch`).  Selection
        matches it too: strict ``<`` against ``t0``, first candidate wins
        ties, within a pair and across pairs.
        """
        index = self._delta.holders
        gpn = self._gpus_per_node
        shrink_gpus: dict[int, np.ndarray] = {}
        stages: list[tuple[int, int, int, bool]] = []  # (rank, lo, hi, cross)
        expand, shrink, gpus = [], [], []
        size = 0
        for rank, e0 in enumerate(hot.tolist()):
            if self._hierarchical:
                e0_nodes = np.unique(
                    index.gpu[index.ptr[e0] : index.ptr[e0 + 1]] // gpn
                )
            for e1 in self._partners(shrinkable, e0):
                if e1 not in shrink_gpus:
                    shrink_gpus[e1] = self._shrink_gpus(index, e1)
                parts = [shrink_gpus[e1]]
                if self._hierarchical:
                    intra = np.isin(parts[0] // gpn, e0_nodes)
                    if intra.any() and not intra.all():
                        parts = [parts[0][intra], parts[0][~intra]]
                for cross, part in enumerate(parts):
                    if part.size:
                        stages.append((rank, size, size + part.size, cross))
                        expand.append(e0)
                        shrink.append(e1)
                        gpus.append(part)
                        size += part.size
        if not stages:
            return None
        sizes = [hi - lo for _, lo, hi, _ in stages]
        expand = np.repeat(expand, sizes)
        shrink = np.repeat(shrink, sizes)
        gpus = np.concatenate(gpus)
        batch = self._delta.pair_candidates(placement, expand, shrink, gpus)
        best = None  # (effective, candidate, source, adjustment)
        i = 0
        while i < len(stages):
            rank = stages[i][0]
            # One wave: stage i plus the following stages of its rank up
            # to (not including) the next cross-node stage.
            j = i + 1
            while (
                j < len(stages) and stages[j][0] == rank and not stages[j][3]
            ):
                j += 1
            lo, hi = stages[i][1], stages[j - 1][2]
            times = batch.times(lo, hi)
            found = False
            # Amortized adjustments are never negative, so a wave with no
            # raw time below t0 has no viable candidate: its expand
            # sources are never priced.
            if (times < t0).any():
                e0 = int(expand[lo])
                sources, adjustments = self._expand_sources_batch(
                    placement,
                    e0,
                    index.gpu[index.ptr[e0] : index.ptr[e0 + 1]],
                    gpus[lo:hi],
                )
                effective = times + self._amortized_vec(adjustments)
                for _, s_lo, s_hi, _ in stages[i:j]:
                    stage = effective[s_lo - lo : s_hi - lo]
                    viable = stage < t0
                    found = bool(viable.any())
                    if not found:
                        continue
                    # First-best wins ties, exactly like the reference
                    # loop's strict `effective < best.time_after` rule.
                    pick = int(np.argmin(np.where(viable, stage, np.inf)))
                    if best is None or stage[pick] < best[0]:
                        k = s_lo - lo + pick
                        best = (
                            stage[pick], lo + k, sources[k], adjustments[k]
                        )
            i = j
            if found and i < len(stages) and stages[i][3]:
                i += 1  # the intra-node stage found a move: no escalation
            if best is not None and (i == len(stages) or stages[i][0] != rank):
                break
        if best is None:
            return None
        effective, cand, source, adjustment = best
        gpu = int(gpus[cand])
        return PolicyDecision(
            actions=(
                Shrink(expert=int(shrink[cand]), gpu=gpu),
                Expand(
                    expert=int(expand[cand]), gpu=gpu, source_gpu=int(source)
                ),
            ),
            time_before=t0,
            time_after=float(effective),
            adjustment_time=float(adjustment),
        )

    def _shrink_gpus(self, index: HolderIndex, e1: int) -> np.ndarray:
        """GPUs where shrinking one vExpert of ``e1`` keeps the floor.

        Shrinking the last copy on a GPU loses a distinct device; the
        floor is on distinct DEVICES (packed copies die together).
        """
        lo, hi = index.ptr[e1], index.ptr[e1 + 1]
        distinct_after = (hi - lo) - (index.count[lo:hi] == 1)
        return index.gpu[lo:hi][distinct_after >= self._min_replicas]

    def _expand_sources_batch(
        self,
        placement: Placement,
        expert: int,
        holders: np.ndarray,
        targets: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cheapest source replica + transfer seconds per expand target.

        Vectorized equivalent of :meth:`_expand_source` +
        :meth:`MoECostModel.adjustment_cost` for one Expand of ``expert``
        (held on the ascending ``holders``): packing on a holder GPU is
        free; otherwise the highest-bandwidth holder pays
        ``state_bytes / Bw`` (first holder wins bandwidth ties, matching
        ``max()`` over the ascending holder tuple).
        """
        bw = self._cost_model.profile.bandwidth_model().submatrix(
            holders, targets
        )
        best = np.argmax(bw, axis=0)
        state_bytes = self._cost_model.model.expert_state_bytes
        adjustments = state_bytes / bw[best, np.arange(targets.size)]
        packed = placement.counts_view[expert, targets] > 0
        sources = np.where(packed, targets, holders[best])
        adjustments = np.where(packed, 0.0, adjustments)
        return sources, adjustments

    def _best_pair(
        self,
        assignment: np.ndarray,
        placement: Placement,
        e0: int,
        e1: int,
        t0: float,
        assignment_key: tuple | None = None,
    ) -> PolicyDecision | None:
        """Reference path: best (Shrink e1@g, Expand e0@g) over all shrink
        GPUs ``g``, one full evaluation per candidate."""
        best: PolicyDecision | None = None
        for gpu in placement.gpus_of(e1):
            trial = placement.copy()
            shrink = Shrink(expert=e1, gpu=gpu)
            try:
                shrink.apply(trial)
            except PlacementError:  # last replica elsewhere raced; skip
                continue
            if len(trial.gpus_of(e1)) < self._min_replicas:
                # The floor is on distinct DEVICES: packed copies on one
                # GPU share weights and die together, so they provide no
                # fault tolerance.
                continue
            source = self._expand_source(trial, e0, gpu)
            expand = Expand(expert=e0, gpu=gpu, source_gpu=source)
            expand.apply(trial)
            t1 = self._memo.step_time(
                assignment, trial, assignment_key=assignment_key,
                phase="policy",
            )
            adjustment = self._cost_model.adjustment_cost([shrink, expand])
            effective = t1 + self._amortized(adjustment)
            if effective < t0 and (best is None or effective < best.time_after):
                best = PolicyDecision(
                    actions=(shrink, expand),
                    time_before=t0,
                    time_after=effective,
                    adjustment_time=adjustment,
                )
        return best

    def _expand_source(self, placement: Placement, expert: int, target: int) -> int:
        """Cheapest source replica for copying ``expert``'s states to ``target``."""
        holders = placement.gpus_of(expert)
        if target in holders:
            return target  # packing: intra-GPU parameter sharing, free
        profile = self._cost_model.profile
        return max(holders, key=lambda g: profile.link_bandwidth(g, target))

    def _amortized(self, adjustment: float) -> float:
        if self._adjustment_horizon == 0:
            return 0.0
        return adjustment / self._adjustment_horizon

    def _amortized_vec(self, adjustments: np.ndarray) -> np.ndarray:
        if self._adjustment_horizon == 0:
            return np.zeros_like(adjustments)
        return adjustments / self._adjustment_horizon
