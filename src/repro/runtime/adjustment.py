"""Placement adjustments in flight: their price and their stream (Section 4).

FlexMoE drains Expand/Shrink/Migrate primitives with three optimizations.
:func:`transfer_seconds` prices the first two for one batch of
primitives:

* **Merge** — copies sharing both source and destination are merged into
  one message, paying a single launch latency for the combined payload;
* **Parallelize** — copies sharing neither source nor destination use
  disjoint links and run concurrently (a *wave* costs its slowest member).

The third, **best-effort** overlap, is :class:`AdjustmentStream`, one per
layer of :class:`~repro.runtime.pipeline.LayerPipeline`: the priced
seconds ride a background stream whose budget is the training step
itself, and the active placement commits the batch once the stream has
paid for it. The stream is the only code that commits or drops an
action.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Sequence

from repro.cluster.collectives import CollectiveCostModel
from repro.core.placement import Placement
from repro.core.primitives import (
    Expand,
    Migrate,
    PlacementAction,
    Shrink,
    action_gpus,
)
from repro.exceptions import PlacementError


def transfer_seconds(
    actions: Iterable[PlacementAction],
    state_bytes: int,
    collectives: CollectiveCostModel,
) -> float:
    """Wall-clock seconds to move the model states ``actions`` imply.

    Every ``(src, dst)`` copy named by an action's ``transfers()`` moves
    ``state_bytes``. Copies over the same link merge into one message, in
    first-seen link order; merged links are packed greedily into waves of
    endpoint-disjoint links; a wave costs its slowest ground-truth
    ``p2p_time`` and waves run one after another.
    """
    copies: dict[tuple[int, int], int] = {}
    for action in actions:
        for link in action.transfers():
            copies[link] = copies.get(link, 0) + 1
    remaining = list(copies.items())
    total = 0.0
    while remaining:
        busy: set[int] = set()
        wave_time = 0.0
        rest = []
        for (src, dst), count in remaining:
            if src in busy or dst in busy:
                rest.append(((src, dst), count))
                continue
            busy.update((src, dst))
            wave_time = max(
                wave_time, collectives.p2p_time(count * state_bytes, src, dst)
            )
        total += wave_time
        remaining = rest
    return total


class AdjustmentStream:
    """One layer's best-effort stream: a FIFO of priced action batches.

    The caller books each batch on the TARGET placement before emitting
    it; the stream owns every action from :meth:`emit` until it commits
    to the ACTIVE placement (:meth:`advance`, once the stream has paid the
    batch's seconds) or is dropped early (:meth:`drop_touching`,
    :meth:`cancel`). One removal rule covers every early exit: an entry
    keeps the share of its remaining seconds its surviving actions
    account for, and an entry left empty leaves the FIFO.

    The target is the active placement plus what the pending actions
    booked on it: a ledger, not a replay. Replaying the pending actions
    onto the active placement need not reproduce the target (a drain copy
    books only its destination there, and a revert that has become
    impossible is skipped). What holds exactly is the count
    ``emitted == committed + dropped + pending``.

    Args:
        active: What routing uses; commits apply here.
        target: What the scheduler plans on; drops revert here.
        best_effort: ``False`` commits each emission at once.
        elastic: A cluster state is attached, so a commit an elasticity
            event obsoleted is dropped (in a static run such a commit is
            a scheduler bug and raises).
    """

    def __init__(
        self, active: Placement, target: Placement, best_effort: bool, elastic: bool
    ) -> None:
        self._active = active
        self._target = target
        self._best_effort = best_effort
        self._elastic = elastic
        # Each entry: [remaining_stream_seconds, actions_tuple]
        self._fifo: deque[list] = deque()
        self._emitted = self._committed = self._dropped = 0

    @property
    def held(self) -> bool:
        """Whether an entry is still unpaid (the scheduler waits)."""
        return bool(self._fifo)

    @property
    def pending(self) -> int:
        return sum(len(entry[1]) for entry in self._fifo)

    @property
    def emitted(self) -> int:
        return self._emitted

    @property
    def committed(self) -> int:
        return self._committed

    @property
    def dropped(self) -> int:
        return self._dropped

    def actions(self) -> tuple[PlacementAction, ...]:
        """Every pending action, in FIFO order."""
        return tuple(a for entry in self._fifo for a in entry[1])

    def emit(self, actions: Sequence[PlacementAction], work: float) -> float:
        """Queue ``actions`` behind ``work`` stream seconds; returns the
        blocking seconds: zero, or ``work`` if they commit at once."""
        if not actions:
            return 0.0
        self._emitted += len(actions)
        if self._best_effort:
            self._fifo.append([work, tuple(actions)])
            return 0.0
        for action in actions:
            action.apply(self._active)
        self._committed += len(actions)
        return work

    def advance(self, budget: float) -> int:
        """Spend ``budget`` seconds on the FIFO; returns actions committed."""
        committed = 0
        while self._fifo and budget > 0:
            entry = self._fifo[0]
            if entry[0] > budget:
                entry[0] -= budget
                break
            budget -= entry[0]
            for action in entry[1]:
                try:
                    action.apply(self._active)
                except PlacementError:
                    if not self._elastic:
                        raise
                    # E.g. its source replica died with a device.
                    self._revert(action)
                    self._dropped += 1
                else:
                    committed += 1
            self._fifo.popleft()
        self._committed += committed
        return committed

    def drop_touching(self, gpus: frozenset[int]) -> int:
        """Drop the pending actions referencing any of ``gpus`` (they
        died) and revert them newest first, so the target never keeps half
        of a dropped (Shrink, Expand) pair; returns how many."""
        dropped = self._remove(lambda a: not gpus.isdisjoint(action_gpus(a)))
        for action in reversed(dropped):
            self._revert(action)
        self._dropped += len(dropped)
        return len(dropped)

    def find_expand(
        self, expert: int | None, gpu: int, safe: Sequence[int]
    ) -> PlacementAction | None:
        """The first pending Expand onto ``gpu`` (of ``expert`` if given)
        whose slot an emergency may steal with :meth:`cancel`. Undoing it
        must free a slot on the target (a later action may have re-removed
        its replica), and its expert must keep another replica on a
        ``safe`` device -- a steal that orphans another expert just moves
        the revocation loss."""
        target = self._target
        for action in self.actions():
            if not (
                isinstance(action, Expand)
                and action.gpu == gpu
                and (expert is None or action.expert == expert)
            ):
                continue
            here = target.count(action.expert, gpu)
            elsewhere = sum(target.count(action.expert, g) for g in safe if g != gpu)
            if here > 0 and elsewhere + here - 1 > 0:
                return action
        return None

    def cancel(self, action: PlacementAction) -> None:
        """Take ``action`` out, undo it on the target and count it dropped:
        a pending Expand whose slot an emergency needs (see
        :meth:`find_expand`), or a Shrink that would discard an expert's
        last copy."""
        self._remove(lambda a: a is action)
        self._revert(action)
        self._dropped += 1

    def record_drain(self, actions: Sequence[PlacementAction]) -> None:
        """Count emergency copies the caller applied to both placements."""
        self._emitted += len(actions)
        self._committed += len(actions)

    def _remove(
        self, doomed: Callable[[PlacementAction], bool]
    ) -> list[PlacementAction]:
        """Take the actions ``doomed`` selects out of the FIFO by the
        removal rule, so survivors never wait on transfers that will not
        run; returns them in FIFO order."""
        removed: list[PlacementAction] = []
        kept: deque[list] = deque()
        for work, actions in self._fifo:
            survivors = tuple(a for a in actions if not doomed(a))
            if len(survivors) < len(actions):
                removed.extend(a for a in actions if doomed(a))
                work = work * len(survivors) / len(actions)
            if survivors:
                kept.append([work, survivors])
        self._fifo = kept
        return removed

    def _revert(self, action: PlacementAction) -> None:
        """Undo ``action`` on the target, unless later actions or the
        imminent eviction already made that impossible."""
        try:
            if isinstance(action, Expand):
                self._target.remove_vexpert(action.expert, action.gpu)
            elif isinstance(action, Shrink):
                self._target.add_vexpert(action.expert, action.gpu)
            elif isinstance(action, Migrate):
                self._target.swap_vexperts(
                    action.expert_a, action.gpu_b, action.expert_b, action.gpu_a
                )
        except PlacementError:
            pass
