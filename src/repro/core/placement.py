"""The vExpert abstraction and the expert-to-device mapping ``P``.

Section 3.2 of the paper introduces **vExpert** as the minimum scheduling
unit: every GPU hosts a fixed number of vExpert slots; each slot is bound to
exactly one expert; vExperts of the same expert on the same GPU share one
copy of the weights ("packing"); and an expert's tokens are split evenly
across its vExperts.

A :class:`Placement` therefore reduces to an integer count matrix
``counts[e, g]`` — the number of vExperts of expert ``e`` living on GPU
``g`` — plus the invariants that make it a valid mapping:

* every expert owns at least one vExpert,
* no GPU hosts more vExperts than it has slots.

Counts are stored as int16 (:data:`VEXPERT_DTYPE`), a quarter of the
bytes of int64: a count never exceeds ``slots_per_gpu``, which must stay
below :data:`VEXPERT_LIMIT` (``2**15``).  Sums along an axis come out
int64, but elementwise ``int16 * int`` stays int16 under NumPy 2 (NEP
50), so code that multiplies counts by a token quantity widens first.
"""

from __future__ import annotations

import itertools
from typing import Iterable

import numpy as np

from repro.exceptions import PlacementError


#: The dtype every placement stores its vExpert count matrix in.
VEXPERT_DTYPE = np.dtype(np.int16)

#: Exclusive bound of every vExpert count and of ``slots_per_gpu``
#: (``2**15``): no GPU holds more vExperts than it has slots, so no
#: mutation can push a count past :data:`VEXPERT_DTYPE`.
VEXPERT_LIMIT = int(np.iinfo(VEXPERT_DTYPE).max) + 1


def _check_slots(slots_per_gpu: int) -> None:
    if slots_per_gpu >= VEXPERT_LIMIT:
        raise PlacementError(
            f"slots_per_gpu {slots_per_gpu} must stay below 2**15 "
            f"({VEXPERT_LIMIT}), the int16 limit of vExpert counts"
        )


def _checked_counts(
    counts: np.ndarray, slots_per_gpu: int, copy: bool
) -> np.ndarray:
    """Check a count matrix's shape, kind and range, and return it as
    :data:`VEXPERT_DTYPE` (int16).

    The range is checked before the cast narrows, so a count the cast
    would wrap (``65537`` into ``1``) raises instead of passing
    :meth:`Placement.validate`.  With ``copy`` false an int16 matrix is
    kept as it is, so a builder hands its buffer over without a copy.
    """
    arr = np.asarray(counts)
    if arr.ndim != 2:
        raise PlacementError("counts must be a (experts, gpus) matrix")
    if not np.issubdtype(arr.dtype, np.integer):
        raise PlacementError("counts must be integral")
    _check_slots(slots_per_gpu)
    if arr.size and (arr.min() < 0 or arr.max().item() >= VEXPERT_LIMIT):
        raise PlacementError(
            "vExpert counts must be non-negative and below 2**15 "
            f"({VEXPERT_LIMIT}), the int16 limit"
        )
    return arr.astype(VEXPERT_DTYPE, copy=copy)


class Placement:
    """Mutable expert-to-device mapping at vExpert granularity.

    Args:
        counts: Integer matrix of shape ``(num_experts, num_gpus)``;
            ``counts[e, g]`` is the number of vExperts of ``e`` on ``g``.
        slots_per_gpu: vExpert slots available on each GPU.
    """

    #: Process-wide counter backing :attr:`state_token`. Every construction
    #: and every mutation draws a fresh value, so a token value is never
    #: shared by two distinct placement contents of the same object.
    _state_counter = itertools.count(1)

    def __init__(self, counts: np.ndarray, slots_per_gpu: int) -> None:
        self._take(
            _checked_counts(counts, slots_per_gpu, copy=True),
            slots_per_gpu,
        )

    @classmethod
    def _adopt(cls, counts: np.ndarray, slots_per_gpu: int) -> "Placement":
        """A placement over a freshly built ``counts``, taken over without
        a copy when it is int16; the caller must not write to it again.
        It passes the same checks as the constructor's input."""
        placement = cls.__new__(cls)
        placement._take(
            _checked_counts(counts, slots_per_gpu, copy=False),
            slots_per_gpu,
        )
        return placement

    def _take(self, counts: np.ndarray, slots_per_gpu: int) -> None:
        self._counts = counts
        # Per-expert replica totals ``n_e`` (int64), kept in step with the
        # matrix by the one mutation funnel (:meth:`_mutate`).
        self._replicas = counts.sum(axis=1)
        self._slots_per_gpu = int(slots_per_gpu)
        self._version = 0
        self._state_token = next(Placement._state_counter)
        self._signature_cache: bytes | None = None
        self.validate()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def balanced(
        cls, num_experts: int, num_gpus: int, slots_per_gpu: int
    ) -> "Placement":
        """Initial placement: vExperts spread evenly over experts and GPUs.

        All ``num_gpus * slots_per_gpu`` slots are distributed as evenly as
        possible across experts; each expert's replicas land on distinct GPUs
        (striped), which is the natural generalization of classic expert
        parallelism's one-expert-per-GPU layout.
        """
        return cls._striped(
            num_experts, num_gpus, slots_per_gpu, np.arange(num_gpus)
        )

    @classmethod
    def balanced_subset(
        cls,
        num_experts: int,
        num_gpus: int,
        slots_per_gpu: int,
        gpus: Iterable[int],
    ) -> "Placement":
        """Balanced layout striped over a subset of the GPU columns.

        The count matrix keeps the full ``num_gpus`` width -- required by
        every consumer that indexes columns by global GPU id -- but only
        the listed ``gpus`` receive vExperts. Pools with dark standby
        headroom (``ClusterState(initial_live=...)``) seed their
        placement here so nothing lands on a device that has not been
        provisioned yet. With ``gpus`` covering every column this is
        exactly :meth:`balanced`.
        """
        active = sorted({int(g) for g in gpus})
        if not active:
            raise PlacementError("balanced_subset needs at least one GPU")
        if active[0] < 0 or active[-1] >= num_gpus:
            raise PlacementError(
                f"subset gpus must be in [0, {num_gpus}), got {active}"
            )
        return cls._striped(
            num_experts, num_gpus, slots_per_gpu, np.array(active)
        )

    @classmethod
    def _striped(
        cls,
        num_experts: int,
        num_gpus: int,
        slots_per_gpu: int,
        columns: np.ndarray,
    ) -> "Placement":
        """Every slot of the ``columns`` GPUs, striped over the experts.

        Slot ``s`` lands on ``columns[s % len(columns)]``; expert ``e``
        takes the next ``n_e`` slots, with the slots spread as evenly as
        possible (the first ``total % E`` experts take one more).  One lap
        of the slots visits each column once, so a lap's ``(expert,
        column)`` cells are distinct and add in one indexed step.
        """
        if num_experts < 1 or num_gpus < 1 or slots_per_gpu < 1:
            raise PlacementError("experts, gpus and slots must all be >= 1")
        _check_slots(slots_per_gpu)
        total_slots = len(columns) * slots_per_gpu
        if total_slots < num_experts:
            raise PlacementError(
                f"{total_slots} slots cannot host {num_experts} experts "
                "(every expert needs at least one vExpert)"
            )
        base, extra = divmod(total_slots, num_experts)
        replicas = np.full(num_experts, base)
        replicas[:extra] += 1
        counts = np.zeros((num_experts, num_gpus), dtype=VEXPERT_DTYPE)
        owners = np.repeat(np.arange(num_experts), replicas)
        for lap in owners.reshape(slots_per_gpu, len(columns)):
            counts[lap, columns] += 1
        return cls._adopt(counts, slots_per_gpu)

    @classmethod
    def expert_parallel(cls, num_experts: int, num_gpus: int) -> "Placement":
        """Classic expert parallelism: experts striped 1-deep over GPUs.

        Used by the DeepSpeed baseline. ``slots_per_gpu`` is set to exactly
        fit the static layout, so no dynamic adjustment is possible.
        """
        if num_experts < 1 or num_gpus < 1:
            raise PlacementError("experts and gpus must be >= 1")
        counts = np.zeros((num_experts, num_gpus), dtype=VEXPERT_DTYPE)
        experts = np.arange(num_experts)
        counts[experts, experts % num_gpus] = 1
        return cls._adopt(counts, -(-num_experts // num_gpus))

    # ------------------------------------------------------------------
    # Validation & invariants
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`PlacementError` if any invariant is violated."""
        if self._slots_per_gpu < 1:
            raise PlacementError("slots_per_gpu must be >= 1")
        if self._counts.size and self._counts.min() < 0:
            raise PlacementError("vExpert counts must be non-negative")
        per_expert = self._counts.sum(axis=1)
        if not np.array_equal(per_expert, self._replicas):
            raise PlacementError(
                "maintained replica totals drifted from the count matrix"
            )
        if (per_expert < 1).any():
            orphan = int(np.argmin(per_expert))
            raise PlacementError(f"expert {orphan} has no vExpert")
        per_gpu = self._counts.sum(axis=0)
        if (per_gpu > self._slots_per_gpu).any():
            full = int(np.argmax(per_gpu))
            raise PlacementError(
                f"gpu {full} hosts {per_gpu[full]} vExperts but has only "
                f"{self._slots_per_gpu} slots"
            )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_experts(self) -> int:
        return self._counts.shape[0]

    @property
    def num_gpus(self) -> int:
        return self._counts.shape[1]

    @property
    def slots_per_gpu(self) -> int:
        return self._slots_per_gpu

    @property
    def total_slots(self) -> int:
        return self.num_gpus * self._slots_per_gpu

    @property
    def counts(self) -> np.ndarray:
        """Copy of the vExpert count matrix ``(experts, gpus)``."""
        return self._counts.copy()

    @property
    def counts_view(self) -> np.ndarray:
        """Read-only view of the count matrix (no copy).

        Hot paths (routing, cost evaluation) read the placement hundreds of
        times per scheduling round; the view avoids an O(E*G) copy per read.
        The view tracks in-place mutation — do not hold it across placement
        changes unless that is what you want.
        """
        view = self._counts.view()
        view.flags.writeable = False
        return view

    @property
    def version(self) -> int:
        """Monotone counter bumped by every mutation.

        A (placement object, version) pair identifies a placement state
        cheaply: evaluator caches use it to detect staleness in O(1) instead
        of hashing the full count matrix.
        """
        return self._version

    @property
    def state_token(self) -> int:
        """Globally unique identifier of this object's *current* content.

        Unlike :attr:`version` (a per-object counter), the token is drawn
        from a process-wide monotone counter on construction and on every
        mutation. A ``(id(placement), state_token)`` pair therefore
        identifies placement content unambiguously for the object's
        lifetime -- the property the step-cost memo's O(1) re-key relies
        on (:class:`~repro.core.cost_model.MemoizedStepCost`).
        """
        return self._state_token

    def row(self, expert: int) -> np.ndarray:
        """Copy of one expert's per-GPU vExpert counts."""
        self._check_expert(expert)
        return self._counts[expert].copy()

    def count(self, expert: int, gpu: int) -> int:
        self._check_expert(expert)
        self._check_gpu(gpu)
        return int(self._counts[expert, gpu])

    def replicas(self, expert: int) -> int:
        """Total number of vExperts allocated to ``expert`` (``n_e``)."""
        self._check_expert(expert)
        return int(self._replicas[expert])

    def replica_counts(self) -> np.ndarray:
        """Copy of the vector ``n_e`` for all experts (O(E), no scan)."""
        return self._replicas.copy()

    def gpus_of(self, expert: int) -> tuple[int, ...]:
        """GPUs holding at least one vExpert of ``expert``."""
        self._check_expert(expert)
        return tuple(int(g) for g in np.flatnonzero(self._counts[expert]))

    def replica_groups(self) -> dict[int, tuple[int, ...]]:
        """Maps every expert to its replica GPU group."""
        return {e: self.gpus_of(e) for e in range(self.num_experts)}

    def used_slots(self, gpu: int) -> int:
        self._check_gpu(gpu)
        return int(self._counts[:, gpu].sum())

    def free_slots(self, gpu: int) -> int:
        return self._slots_per_gpu - self.used_slots(gpu)

    def experts_on(self, gpu: int) -> tuple[int, ...]:
        self._check_gpu(gpu)
        return tuple(np.flatnonzero(self._counts[:, gpu]).tolist())

    # ------------------------------------------------------------------
    # Mutation (used by the primitives; prefer applying PlacementActions)
    # ------------------------------------------------------------------
    def _mutate(self, *cells: tuple[int, int, int]) -> None:
        """Apply per-cell count deltas; the single funnel every mutation
        goes through, so the replica totals, version and signature cache
        can never drift from the count matrix."""
        for expert, gpu, delta in cells:
            self._counts[expert, gpu] += delta
            self._replicas[expert] += delta
        self._version += 1
        self._state_token = next(Placement._state_counter)
        self._signature_cache = None

    def add_vexpert(self, expert: int, gpu: int) -> None:
        """Bind one free slot on ``gpu`` to ``expert``."""
        self._check_expert(expert)
        self._check_gpu(gpu)
        if self.free_slots(gpu) < 1:
            raise PlacementError(f"gpu {gpu} has no free vExpert slot")
        self._mutate((expert, gpu, 1))

    def remove_vexpert(self, expert: int, gpu: int) -> None:
        """Release one vExpert of ``expert`` from ``gpu``."""
        self._check_expert(expert)
        self._check_gpu(gpu)
        if self._counts[expert, gpu] < 1:
            raise PlacementError(f"expert {expert} has no vExpert on gpu {gpu}")
        if self.replicas(expert) <= 1:
            raise PlacementError(
                f"cannot remove the last vExpert of expert {expert}"
            )
        self._mutate((expert, gpu, -1))

    def swap_vexperts(self, expert_a: int, gpu_a: int, expert_b: int, gpu_b: int) -> None:
        """Exchange one vExpert of ``expert_a``@``gpu_a`` with one of
        ``expert_b``@``gpu_b`` (the paper's Migrate exchange)."""
        if gpu_a == gpu_b:
            raise PlacementError("swap requires distinct GPUs")
        self._check_expert(expert_a)
        self._check_expert(expert_b)
        self._check_gpu(gpu_a)
        self._check_gpu(gpu_b)
        if self._counts[expert_a, gpu_a] < 1:
            raise PlacementError(f"expert {expert_a} has no vExpert on gpu {gpu_a}")
        if self._counts[expert_b, gpu_b] < 1:
            raise PlacementError(f"expert {expert_b} has no vExpert on gpu {gpu_b}")
        self._mutate(
            (expert_a, gpu_a, -1),
            (expert_b, gpu_b, -1),
            (expert_a, gpu_b, 1),
            (expert_b, gpu_a, 1),
        )

    # ------------------------------------------------------------------
    # Utility
    # ------------------------------------------------------------------
    def copy(self) -> "Placement":
        """Independent clone with a fresh version and state token.

        The original is valid (every mutation keeps it so), so the clone
        takes its count matrix and replica totals as they are instead of
        re-validating them.
        """
        clone = object.__new__(Placement)
        clone._counts = self._counts.copy()
        clone._replicas = self._replicas.copy()
        clone._slots_per_gpu = self._slots_per_gpu
        clone._version = 0
        clone._state_token = next(Placement._state_counter)
        clone._signature_cache = self._signature_cache
        return clone

    def signature(self) -> bytes:
        """Hashable snapshot of the mapping (cached until the next mutation).

        Used for change detection and as the exact content key of the
        step-cost memo; the cache means repeated queries on an unchanged
        placement cost O(1) instead of an O(E*G) ``tobytes``.
        """
        if self._signature_cache is None:
            self._signature_cache = self._counts.tobytes()
        return self._signature_cache

    def _check_expert(self, expert: int) -> None:
        if not 0 <= expert < self.num_experts:
            raise PlacementError(
                f"expert {expert} out of range [0, {self.num_experts})"
            )

    def _check_gpu(self, gpu: int) -> None:
        if not 0 <= gpu < self.num_gpus:
            raise PlacementError(f"gpu {gpu} out of range [0, {self.num_gpus})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Placement):
            return NotImplemented
        return (
            self._slots_per_gpu == other._slots_per_gpu
            and np.array_equal(self._counts, other._counts)
        )

    def __repr__(self) -> str:
        return (
            f"Placement(experts={self.num_experts}, gpus={self.num_gpus}, "
            f"slots_per_gpu={self._slots_per_gpu})"
        )
