"""Cost models for one MoE layer step (Eqs. 5, 7, 8, 9).

The training cost of a step under token assignment ``I`` and placement
``P`` is (Eq. 5)::

    T(I, P) = max_g  sum_{(e,g) in P} [ T_C(I_eg) + T_A2A(I_eg) + T_Sync(P, e) ]

with per-term models:

* computation (Eq. 7):   ``T_C = I_eg / TPS``
* All-to-All (Eq. 8):    ``T_A2A = 4 * sum_g' I_eg.count(g') / Bw(g, g')``
  (four All-to-Alls per step: dispatch + combine, forward + backward),
  priced from the routing plan's ``G x G`` flow
* synchronization (Eq. 9): ``T_Sync = size(e.gradients) / BPS(P.index(e))``
* adjustment:            ``size(e.model_states) / Bw(g, g')``

All environmental variables (TPS, Bw, BPS) come from a
:class:`~repro.cluster.profiler.ClusterProfile`, mirroring the paper's
profiling-based estimation. Feeding an exact profile turns the same code
into the ground-truth executor's timing model.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro import telemetry
from repro.cluster.profiler import ClusterProfile
from repro.config import FORWARD_FRACTION, MoEModelConfig
from repro.core.placement import Placement
from repro.core.primitives import PlacementAction
from repro.exceptions import ConfigurationError, RoutingError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.cluster.events import ClusterState
    from repro.core.router import FlexibleTokenRouter, RoutingPlan


@dataclass(frozen=True)
class CostBreakdown:
    """Per-GPU cost decomposition of a single MoE-layer step.

    Attributes:
        compute: Seconds of expert computation per GPU.
        all_to_all: Seconds of All-to-All communication per GPU.
        sync: Seconds of replica-gradient AllReduce per GPU.
    """

    compute: np.ndarray
    all_to_all: np.ndarray
    sync: np.ndarray

    @property
    def per_gpu_total(self) -> np.ndarray:
        return self.compute + self.all_to_all + self.sync

    @property
    def step_time(self) -> float:
        """Eq. 5's outer max: the slowest GPU defines the step."""
        return float(self.per_gpu_total.max())

    @property
    def compute_utilization(self) -> float:
        """Mean fraction of the step each GPU spends on useful compute.

        This is the "GPU utilization" quantity of Figure 2: idle waiting on
        stragglers and communication both count against it.
        """
        step = self.step_time
        if step == 0:
            return 1.0
        return float((self.compute / step).mean())


class MoECostModel:
    """Cost model over a profiled cluster for one MoE layer.

    Args:
        profile: Profiled environmental variables (TPS, Bw, BPS).
        model: Architecture whose expert/token sizes set the byte counts.
        cluster_state: Optional live view of the device pool
            (:class:`~repro.cluster.events.ClusterState`). When attached,
            compute costs are priced against the *current* per-device
            speeds (the runtime re-profiles on elasticity events) and
            :meth:`live_mask` reflects failures.
        inference: Price inference-shaped steps (online serving): only
            the forward share of the calibrated forward+backward compute,
            two All-to-All passes (dispatch + combine, no backward) and
            no replica-gradient synchronization. Off by default -- the
            paper's training semantics.
    """

    #: All-to-All passes per training step (Eq. 8's factor).
    A2A_PASSES = 4

    #: All-to-All passes per inference step (forward dispatch + combine).
    INFERENCE_A2A_PASSES = 2

    def __init__(
        self,
        profile: ClusterProfile,
        model: MoEModelConfig,
        cluster_state: "ClusterState | None" = None,
        inference: bool = False,
    ) -> None:
        self._profile = profile
        self._model = model
        self._cluster_state = cluster_state
        self._inference = inference

    @property
    def model(self) -> MoEModelConfig:
        return self._model

    @property
    def profile(self) -> ClusterProfile:
        return self._profile

    @property
    def cluster_state(self) -> "ClusterState | None":
        return self._cluster_state

    @property
    def inference(self) -> bool:
        """Whether this model prices inference-shaped steps."""
        return self._inference

    @property
    def a2a_passes(self) -> int:
        """All-to-All passes per step under the configured step shape."""
        return self.INFERENCE_A2A_PASSES if self._inference else self.A2A_PASSES

    @property
    def sync_bytes(self) -> int:
        """Gradient bytes AllReduced per replicated expert (0 at inference:
        serving never synchronizes gradients)."""
        return 0 if self._inference else self._model.expert_bytes

    @property
    def state_version(self) -> int:
        """Version of the attached cluster state (0 when detached).

        Memo caches include it in their keys so costs priced against an
        older device pool are never replayed after an elasticity event.
        """
        return 0 if self._cluster_state is None else self._cluster_state.version

    def effective_tps(self) -> np.ndarray:
        """Per-GPU expert TPS under the current device pool and step shape.

        Profiled TPS figures are calibrated on full forward+backward
        steps; inference-shaped steps run only the forward share, so the
        same device sustains ``1 / FORWARD_FRACTION`` times the token
        rate.
        """
        tps = self._profile.tps
        if self._cluster_state is not None:
            tps = tps * self._cluster_state.speed_view()
        if self._inference:
            tps = tps / FORWARD_FRACTION
        return tps

    def live_mask(self) -> np.ndarray:
        """Boolean liveness vector (all-true when no state is attached).

        Backed by the state's cached read-only view — treat as
        immutable."""
        if self._cluster_state is None:
            return np.ones(self._profile.tps.size, dtype=bool)
        return self._cluster_state.live_view()

    # ------------------------------------------------------------------
    # Individual terms
    # ------------------------------------------------------------------
    def compute_time(self, tokens: float, gpu: int) -> float:
        """Eq. 7 for a single (expert, gpu) token count."""
        if tokens < 0:
            raise RoutingError("token count must be >= 0")
        tps = self._profile.tokens_per_second(gpu)
        if self._cluster_state is not None:
            tps *= self._cluster_state.speed_of(gpu)
        if self._inference:
            tps /= FORWARD_FRACTION
        return tokens / tps

    def group_sync_time(self, holders: np.ndarray) -> float:
        """Eq. 9 for one replica group: seconds each member spends in the
        group's gradient AllReduce, ``sync_bytes / BPS(holders)``.

        Zero for a single holder and for inference-shaped steps. Prices
        through the profile's lazy BPS cache, so the callers' call order
        is the probe order.
        """
        nbytes = self.sync_bytes
        if not nbytes or holders.size < 2:
            return 0.0
        return nbytes / self._profile.allreduce_bps(tuple(holders.tolist()))

    def sync_times(self, placement: Placement) -> np.ndarray:
        """Per-GPU AllReduce seconds (Eq. 9) for replicated experts.

        Groups are priced in ascending expert order (the profile's lazy
        noisy-measurement stream sees them first-seen in that order) and
        the per-GPU accumulation is a single membership-matrix product.
        """
        member = placement.counts_view > 0  # (experts, gpus)
        multi = np.flatnonzero(member.sum(axis=1) > 1)
        if not self.sync_bytes or multi.size == 0:
            return np.zeros(placement.num_gpus)
        t_sync = np.array(
            [self.group_sync_time(np.flatnonzero(member[e])) for e in multi]
        )
        return member[multi].T.astype(float) @ t_sync

    def adjustment_cost(self, actions: Sequence[PlacementAction]) -> float:
        """Seconds of sequential transfer time for a list of primitives.

        Uses the profiled bandwidth table (the paper's
        ``size(model_states) / Bw(g, g')``). The runtime's adjustment queue
        may merge/parallelize these; this is the conservative serial bound
        the Policy Maker reasons with.
        """
        total = 0.0
        state_bytes = self._model.expert_state_bytes
        for action in actions:
            endpoints = getattr(action, "gpu_a", None)
            if endpoints is not None:  # Migrate
                bw_ab = self._profile.link_bandwidth(action.gpu_a, action.gpu_b)
                bw_ba = self._profile.link_bandwidth(action.gpu_b, action.gpu_a)
                total += max(state_bytes / bw_ab, state_bytes / bw_ba)
                continue
            source = getattr(action, "source_gpu", None)
            if source is None:  # Shrink
                continue
            if source == action.gpu:  # intra-GPU Expand: parameter sharing
                continue
            bw = self._profile.link_bandwidth(source, action.gpu)
            total += state_bytes / bw
        return total

    # ------------------------------------------------------------------
    # Full step
    # ------------------------------------------------------------------
    def step_breakdown(
        self, plan: "RoutingPlan", placement: Placement
    ) -> CostBreakdown:
        """Eq. 5's inner sums, decomposed per GPU, for a routed step.

        Eq. 7 reads the tokens each GPU processes off the plan's flow
        column sums, and Eq. 8 prices the flow through
        :meth:`~repro.cluster.bandwidth.BandwidthModel.receive_times`,
        the same pass the ground-truth executor plays.
        """
        if plan.local.shape != (placement.num_experts, placement.num_gpus):
            raise RoutingError(
                f"plan covers {plan.local.shape} (experts, gpus) but "
                f"placement has ({placement.num_experts}, "
                f"{placement.num_gpus})"
            )
        bandwidth = self._profile.bandwidth_model()
        return CostBreakdown(
            compute=plan.flow.sum(axis=0) / self.effective_tps(),
            all_to_all=self.a2a_passes
            * bandwidth.receive_times(plan.flow, self._model.token_bytes),
            sync=self.sync_times(placement),
        )

    def step_time(self, plan: "RoutingPlan", placement: Placement) -> float:
        """Eq. 5: modelled wall-clock of one MoE-layer step."""
        return self.step_breakdown(plan, placement).step_time


class MemoizedStepCost:
    """LRU memo of modelled step times keyed on (placement, load vector).

    The scheduling stack's what-if searches evaluate hundreds of candidate
    placements per round, and across rounds of the same step — and often
    across phases of the same step, since the Migrate pass re-prices the
    exact configuration the Policy Maker just settled on — they keep
    re-deriving the cost of identical (assignment, placement)
    configurations. Routing is deterministic, so the modelled step time is
    a pure function of the two; this wrapper routes and evaluates on a
    miss and replays the cached value on a hit.

    Two layers of keying keep hits cheap:

    * the *content* key ``(state_version, placement signature, load
      digest)`` is exact and shared across placement objects (a planner's
      working copy hits entries cached from another copy with the same
      counts);
    * a *token* shortcut maps ``(id(placement),``
      :attr:`~repro.core.placement.Placement.state_token`\\ ``)`` to the
      content signature, so repeated queries on a placement that mutated
      and rolled back in between (the trial-journal workflow) never
      re-digest the count matrix. The token is globally unique per
      content state, which makes the shortcut exact — unlike the
      per-object ``version`` counter, which trial rollbacks can alias.

    Entries priced against an older device pool are keyed out by the
    cluster-state version; :meth:`invalidate` is the explicit hook for
    callers that change pricing inputs the key cannot see (e.g. swapping
    the profile under the cost model).

    Args:
        cost_model: The underlying (uncached) cost model.
        router: Router supplying the fractional relaxation; defaults to a
            fresh :class:`~repro.core.router.FlexibleTokenRouter`.
        capacity: Maximum number of cached configurations (LRU eviction).
    """

    #: Bound on the token-shortcut map (cleared wholesale when exceeded;
    #: entries are tiny, this only guards pathological churn).
    TOKEN_CACHE_LIMIT = 65_536

    def __init__(
        self,
        cost_model: MoECostModel,
        router: "FlexibleTokenRouter | None" = None,
        capacity: int = 4096,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError("memo capacity must be >= 1")
        from repro.core.router import FlexibleTokenRouter

        self._cost_model = cost_model
        self._router = router or FlexibleTokenRouter()
        self._capacity = capacity
        self._cache: OrderedDict[tuple, float] = OrderedDict()
        self._signature_by_token: dict[tuple[int, int], bytes] = {}
        self._phase_stats: dict[str, list[int]] = {}
        self.hits = 0
        self.misses = 0

    @property
    def cost_model(self) -> MoECostModel:
        return self._cost_model

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._cache)

    def invalidate(self) -> None:
        """Drop every cached cost (hit/miss accounting is kept).

        The explicit staleness hook: the cluster-state version already
        keys out entries after elasticity events, but callers that change
        pricing inputs the key cannot observe must invalidate here
        instead of relying on silent re-digestion.
        """
        self._cache.clear()
        self._signature_by_token.clear()

    def clear(self) -> None:
        self.invalidate()
        self._phase_stats.clear()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def assignment_key(assignment: np.ndarray) -> tuple:
        """Content digest of a load matrix, reusable across many queries.

        The Policy Maker evaluates every candidate of a scheduling round
        against the *same* assignment; computing this once per round and
        passing it to :meth:`step_time` means the per-candidate key
        construction never re-hashes the full ``(experts, gpus)`` matrix.
        """
        loads = np.ascontiguousarray(assignment, dtype=np.float64)
        digest = hashlib.blake2b(loads.tobytes(), digest_size=16).digest()
        return (loads.shape, digest)

    def _placement_signature(self, placement: Placement) -> bytes:
        """Content signature via the token shortcut (no re-digest on a
        placement that mutated and rolled back since the last query)."""
        token = (id(placement), placement.state_token)
        signature = self._signature_by_token.get(token)
        if signature is None:
            signature = placement.signature()
            if len(self._signature_by_token) >= self.TOKEN_CACHE_LIMIT:
                self._signature_by_token.clear()
            self._signature_by_token[token] = signature
        return signature

    def step_time(
        self,
        assignment: np.ndarray,
        placement: Placement,
        assignment_key: tuple | None = None,
        phase: str | None = None,
    ) -> float:
        """Modelled step time of ``assignment`` under ``placement``.

        Identical to routing the assignment fractionally and asking the
        cost model, but cached on the (placement, load-vector) pair.
        ``assignment_key`` (from :meth:`assignment_key`) skips re-hashing
        the loads; the placement side of the key resolves through the
        state-token shortcut, so hits on unchanged *or rolled-back*
        configurations are O(1). ``phase`` attributes the hit/miss to a
        named caller in :meth:`stats` (e.g. ``"policy"`` / ``"migration"``
        when the Scheduler shares one memo across both search phases).
        """
        if assignment_key is None:
            assignment_key = self.assignment_key(assignment)
        # The cluster-state version keys out costs priced against a device
        # pool that an elasticity event has since changed.
        key = (
            self._cost_model.state_version,
            self._placement_signature(placement),
            assignment_key,
        )
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self.hits += 1
            self._count_phase(phase, hit=True)
            tel = telemetry.current()
            if tel is not None:
                tel.registry.counter(
                    "memo.hits", phase=phase or "unscoped"
                ).inc()
            return cached
        plan = self._router.route_fractional(assignment, placement)
        value = self._cost_model.step_time(plan, placement)
        self._cache[key] = value
        if len(self._cache) > self._capacity:
            self._cache.popitem(last=False)
        self.misses += 1
        self._count_phase(phase, hit=False)
        tel = telemetry.current()
        if tel is not None:
            tel.registry.counter(
                "memo.misses", phase=phase or "unscoped"
            ).inc()
        return value

    def _count_phase(self, phase: str | None, hit: bool) -> None:
        if phase is None:
            return
        counters = self._phase_stats.get(phase)
        if counters is None:
            counters = self._phase_stats[phase] = [0, 0]
        counters[0 if hit else 1] += 1

    def phase_stats(self) -> dict[str, dict[str, float]]:
        """Per-phase hit/miss accounting (phases that ever queried)."""
        out: dict[str, dict[str, float]] = {}
        for phase, (hits, misses) in sorted(self._phase_stats.items()):
            total = hits + misses
            out[phase] = {
                "hits": float(hits),
                "misses": float(misses),
                "hit_rate": hits / total if total else 0.0,
            }
        return out

    def stats(self) -> dict[str, object]:
        """Hit/miss accounting for bench reporting."""
        return {
            "hits": float(self.hits),
            "misses": float(self.misses),
            "hit_rate": self.hit_rate,
            "entries": float(len(self._cache)),
            "phases": self.phase_stats(),
        }

    def publish(self, registry) -> None:
        """Publish the accumulated hit/miss accounting into a
        :class:`~repro.telemetry.registry.MetricsRegistry` (the pull
        side of the memo tap: harnesses that time runs with telemetry
        off publish the totals after the fact)."""
        phases = dict(self._phase_stats)
        scoped_hits = sum(h for h, _ in phases.values())
        scoped_misses = sum(m for _, m in phases.values())
        for phase, (hits, misses) in sorted(phases.items()):
            registry.counter("memo.hits", phase=phase).inc(hits)
            registry.counter("memo.misses", phase=phase).inc(misses)
        if self.hits > scoped_hits:
            registry.counter("memo.hits", phase="unscoped").inc(
                self.hits - scoped_hits
            )
        if self.misses > scoped_misses:
            registry.counter("memo.misses", phase="unscoped").inc(
                self.misses - scoped_misses
            )
        registry.gauge("memo.entries").set(len(self._cache))
        registry.gauge("memo.hit_rate").set(self.hit_rate)
