"""Placement-modification primitives: Expand, Shrink, Migrate (Section 3.3).

Each primitive is a small immutable action object that knows how to apply
itself to a :class:`~repro.core.placement.Placement` and, through
``transfers()``, which ``(src, dst)`` copies of one vExpert's model states
it implies -- the one statement of its data movement that the runtime's
adjustment stream and the cost model both price:

* **Expand** copies an expert's parameters and optimizer states from a
  source vExpert to a newly bound slot — free when source and target share a
  GPU (parameter sharing), a NCCL point-to-point transfer otherwise.
* **Shrink** releases a vExpert by marking a tag; no communication.
* **Migrate** exchanges the model states of two vExperts on different GPUs,
  one point-to-point transfer in each direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.core.placement import Placement
from repro.exceptions import PlacementError


@dataclass(frozen=True)
class Expand:
    """Allocate one extra vExpert for ``expert`` on ``gpu``.

    Attributes:
        expert: Expert gaining a replica.
        gpu: GPU whose free slot is bound.
        source_gpu: GPU supplying the model states. When it equals ``gpu``
            the copy is intra-GPU parameter sharing and costs nothing.
    """

    expert: int
    gpu: int
    source_gpu: int

    def apply(self, placement: Placement) -> None:
        if placement.count(self.expert, self.source_gpu) < 1:
            raise PlacementError(
                f"expand source gpu {self.source_gpu} holds no vExpert of "
                f"expert {self.expert}"
            )
        placement.add_vexpert(self.expert, self.gpu)

    def transfers(self) -> tuple[tuple[int, int], ...]:
        """``(src, dst)`` copies of one vExpert's model states; none when
        the new vExpert packs onto its source GPU."""
        if self.gpu == self.source_gpu:
            return ()
        return ((self.source_gpu, self.gpu),)


@dataclass(frozen=True)
class Shrink:
    """Release one vExpert of ``expert`` from ``gpu`` (zero-cost tag)."""

    expert: int
    gpu: int

    def apply(self, placement: Placement) -> None:
        placement.remove_vexpert(self.expert, self.gpu)

    def transfers(self) -> tuple[tuple[int, int], ...]:
        return ()


@dataclass(frozen=True)
class Migrate:
    """Exchange the vExpert of ``expert_a``@``gpu_a`` with
    ``expert_b``@``gpu_b`` to consolidate replica groups."""

    expert_a: int
    gpu_a: int
    expert_b: int
    gpu_b: int

    def apply(self, placement: Placement) -> None:
        placement.swap_vexperts(self.expert_a, self.gpu_a, self.expert_b, self.gpu_b)

    def transfers(self) -> tuple[tuple[int, int], ...]:
        return ((self.gpu_a, self.gpu_b), (self.gpu_b, self.gpu_a))


PlacementAction = Union[Expand, Shrink, Migrate]


def apply_actions(placement: Placement, actions: list[PlacementAction]) -> None:
    """Apply ``actions`` in order, validating the final placement.

    A failed action leaves earlier actions applied (matching the runtime,
    where primitives commit one at a time), but the final state is always
    re-validated.
    """
    for action in actions:
        action.apply(placement)
    placement.validate()


def action_gpus(action: PlacementAction) -> tuple[int, ...]:
    """Every GPU an action references (slot targets and transfer endpoints).

    Used by the elastic runtime to discard queued adjustments whose
    endpoints died with a failed device.
    """
    if isinstance(action, Expand):
        return (action.gpu, action.source_gpu)
    if isinstance(action, Shrink):
        return (action.gpu,)
    if isinstance(action, Migrate):
        return (action.gpu_a, action.gpu_b)
    raise PlacementError(f"unknown primitive {action!r}")
