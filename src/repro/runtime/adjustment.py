"""Transfer time of a batch of placement adjustments (Section 4).

FlexMoE drains Expand/Shrink/Migrate primitives with three optimizations.
:func:`transfer_seconds` prices the first two for one batch of
primitives:

* **Merge** — copies sharing both source and destination are merged into
  one message, paying a single launch latency for the combined payload;
* **Parallelize** — copies sharing neither source nor destination use
  disjoint links and run concurrently (a *wave* costs its slowest member).

The third, **best-effort** overlap, is the layer stream of
:class:`~repro.runtime.pipeline.LayerPipeline`: the priced seconds ride a
background stream whose budget is the training step itself, and the
active placement commits the batch once the stream has paid for it.
"""

from __future__ import annotations

from typing import Iterable

from repro.cluster.collectives import CollectiveCostModel
from repro.core.primitives import PlacementAction


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
