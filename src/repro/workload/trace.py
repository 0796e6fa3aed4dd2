"""Routing-trace containers.

A :class:`RoutingTrace` records, for every training step, the token
assignment matrix ``I`` whose entry ``I[e, g]`` is the number of tokens that
source GPU ``g`` routes to expert ``e`` — exactly the quantity the paper's
Scheduler monitors (Algorithm 1's input ``I``).

A :class:`MultiLayerTrace` stacks one such trace per MoE layer of the
transformer: routing is observed (and placements are adjusted) per layer,
and expert popularity is uncorrelated across layers, so every layer carries
its own assignment history over the shared step/expert/GPU axes.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Sequence, TypeVar

import numpy as np

from repro.exceptions import RoutingError


def _checked_counts(
    assignments: np.ndarray, axes: tuple[str, ...], copy: bool
) -> np.ndarray:
    """Validate a token-count array and return it as read-only int64.

    Float counts must be finite, integral and below ``2**63``: the int64
    cast would wrap anything else into a garbage, often negative, count.
    With ``copy`` false an int64 array is kept as it is, so a caller
    that built the buffer hands it over without a second copy.
    """
    arr = np.asarray(assignments)
    if arr.ndim != len(axes):
        raise RoutingError(
            f"assignments must have shape ({', '.join(axes)}); "
            f"got ndim={arr.ndim}"
        )
    integer = arr.dtype.kind in "iu"
    if not integer and not np.isfinite(arr).all():
        raise RoutingError("token counts must be finite")
    if arr.size and arr.min() < 0:
        raise RoutingError("token counts must be non-negative")
    if arr.size and arr.dtype.kind in "uf" and arr.max() >= 2**63:
        raise RoutingError("token counts must fit in int64")
    if not integer:
        rounded = np.round(arr)
        if not np.allclose(arr, rounded):
            raise RoutingError("token counts must be integral")
        arr, copy = rounded, False
    counts = arr.astype(np.int64, copy=copy)
    counts.setflags(write=False)
    return counts


_Trace = TypeVar("_Trace", bound="_CountHistory")


class _CountHistory:
    """Shared construction of the trace containers.

    The constructor copies, so a caller's array never changes under the
    trace; :meth:`adopt` takes a freshly built buffer over in place.
    """

    #: Names of the ``_assignments`` axes, outermost first.
    AXES: tuple[str, ...] = ()

    def __init__(self, assignments: np.ndarray) -> None:
        self._assignments = _checked_counts(assignments, self.AXES, copy=True)

    @classmethod
    def adopt(cls: type[_Trace], buffer: np.ndarray) -> _Trace:
        """Wrap ``buffer`` without copying it.

        The trace owns the buffer from here on and marks it read-only;
        the caller must not keep writing to it.  It passes the same
        validation as the constructor's input.
        """
        trace = cls.__new__(cls)
        trace._assignments = _checked_counts(buffer, cls.AXES, copy=False)
        return trace


class RoutingTrace(_CountHistory):
    """Immutable per-step token-assignment history.

    Args:
        assignments: Integer array of shape
            ``(num_steps, num_experts, num_gpus)``; entry ``[t, e, g]`` is
            the number of tokens GPU ``g`` sends to expert ``e`` at step
            ``t``.
    """

    AXES = ("steps", "experts", "gpus")

    # ------------------------------------------------------------------
    # Shape accessors
    # ------------------------------------------------------------------
    @property
    def num_steps(self) -> int:
        return self._assignments.shape[0]

    @property
    def num_experts(self) -> int:
        return self._assignments.shape[1]

    @property
    def num_gpus(self) -> int:
        return self._assignments.shape[2]

    def __len__(self) -> int:
        return self.num_steps

    # ------------------------------------------------------------------
    # Step access
    # ------------------------------------------------------------------
    def step(self, t: int) -> np.ndarray:
        """Assignment matrix ``I`` of shape ``(experts, gpus)`` at step ``t``."""
        if not 0 <= t < self.num_steps:
            raise RoutingError(f"step {t} out of range [0, {self.num_steps})")
        return self._assignments[t]

    def __iter__(self) -> Iterator[np.ndarray]:
        for t in range(self.num_steps):
            yield self._assignments[t]

    def expert_loads(self, t: int | None = None) -> np.ndarray:
        """Per-expert total token counts.

        Args:
            t: A single step, or ``None`` for the full
                ``(steps, experts)`` history.
        """
        if t is None:
            return self._assignments.sum(axis=2)
        return self.step(t).sum(axis=1)

    def tokens_per_step(self) -> np.ndarray:
        """Total token count of each step."""
        return self._assignments.sum(axis=(1, 2))

    def slice(self, start: int, stop: int) -> "RoutingTrace":
        """Sub-trace covering steps ``[start, stop)``."""
        if not 0 <= start <= stop <= self.num_steps:
            raise RoutingError(
                f"invalid slice [{start}, {stop}) for {self.num_steps} steps"
            )
        return RoutingTrace(self._assignments[start:stop])

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Persist the trace as a compressed ``.npz`` file."""
        np.savez_compressed(Path(path), assignments=self._assignments)

    @classmethod
    def load(cls, path: str | Path) -> "RoutingTrace":
        """Load a trace previously written by :meth:`save`."""
        with np.load(Path(path)) as data:
            if "assignments" not in data:
                raise RoutingError(f"{path} is not a routing trace file")
            return cls.adopt(data["assignments"])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoutingTrace):
            return NotImplemented
        return np.array_equal(self._assignments, other._assignments)

    def __repr__(self) -> str:
        return (
            f"RoutingTrace(steps={self.num_steps}, experts={self.num_experts}, "
            f"gpus={self.num_gpus})"
        )


class MultiLayerTrace(_CountHistory):
    """Immutable per-layer, per-step token-assignment history.

    Args:
        assignments: Integer array of shape
            ``(num_layers, num_steps, num_experts, num_gpus)``; entry
            ``[l, t, e, g]`` is the number of tokens GPU ``g`` sends to
            expert ``e`` of MoE layer ``l`` at step ``t``.
    """

    AXES = ("layers", "steps", "experts", "gpus")

    @classmethod
    def from_layers(cls, layers: Sequence[RoutingTrace]) -> "MultiLayerTrace":
        """Stack per-layer :class:`RoutingTrace` objects into one trace."""
        if not layers:
            raise RoutingError("at least one layer trace is required")
        shapes = {layer._assignments.shape for layer in layers}
        if len(shapes) != 1:
            raise RoutingError(
                f"layer traces disagree on shape: {sorted(shapes)}"
            )
        return cls.adopt(np.stack([layer._assignments for layer in layers]))

    # ------------------------------------------------------------------
    # Shape accessors
    # ------------------------------------------------------------------
    @property
    def num_layers(self) -> int:
        return self._assignments.shape[0]

    @property
    def num_steps(self) -> int:
        return self._assignments.shape[1]

    @property
    def num_experts(self) -> int:
        return self._assignments.shape[2]

    @property
    def num_gpus(self) -> int:
        return self._assignments.shape[3]

    def __len__(self) -> int:
        return self.num_steps

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def step(self, t: int) -> np.ndarray:
        """Assignments of all layers at step ``t``: ``(layers, experts, gpus)``."""
        if not 0 <= t < self.num_steps:
            raise RoutingError(f"step {t} out of range [0, {self.num_steps})")
        return self._assignments[:, t]

    def layer(self, index: int) -> RoutingTrace:
        """The single-layer :class:`RoutingTrace` of MoE layer ``index``."""
        if not 0 <= index < self.num_layers:
            raise RoutingError(
                f"layer {index} out of range [0, {self.num_layers})"
            )
        return RoutingTrace(self._assignments[index])

    def __iter__(self) -> Iterator[np.ndarray]:
        for t in range(self.num_steps):
            yield self._assignments[:, t]

    def expert_loads(self) -> np.ndarray:
        """Per-layer per-step per-expert totals ``(layers, steps, experts)``."""
        return self._assignments.sum(axis=3)

    def tokens_per_step(self) -> np.ndarray:
        """Total token count of each step across all layers."""
        return self._assignments.sum(axis=(0, 2, 3))

    def slice(self, start: int, stop: int) -> "MultiLayerTrace":
        """Sub-trace covering steps ``[start, stop)``."""
        if not 0 <= start <= stop <= self.num_steps:
            raise RoutingError(
                f"invalid slice [{start}, {stop}) for {self.num_steps} steps"
            )
        return MultiLayerTrace(self._assignments[:, start:stop])

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Persist the trace as a compressed ``.npz`` file."""
        np.savez_compressed(Path(path), layer_assignments=self._assignments)

    @classmethod
    def load(cls, path: str | Path) -> "MultiLayerTrace":
        """Load a trace previously written by :meth:`save`."""
        with np.load(Path(path)) as data:
            if "layer_assignments" not in data:
                raise RoutingError(f"{path} is not a multi-layer trace file")
            return cls.adopt(data["layer_assignments"])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiLayerTrace):
            return NotImplemented
        return np.array_equal(self._assignments, other._assignments)

    def __repr__(self) -> str:
        return (
            f"MultiLayerTrace(layers={self.num_layers}, steps={self.num_steps}, "
            f"experts={self.num_experts}, gpus={self.num_gpus})"
        )
