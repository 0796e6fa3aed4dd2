"""Elastic cluster runtime: device-pool state and elasticity event streams.

The paper assumes a fixed pool of identical A100s. Real sparse-training
clusters are neither fixed nor identical: devices slow down (thermal
throttling, noisy neighbours), fail, recover, and nodes join or leave
mid-run. This module provides the two pieces that turn the simulator's
frozen cluster into a live one:

* :class:`ClusterState` -- the mutable runtime view of the device pool
  (which GPUs are alive, how fast each currently runs). Cost models,
  schedulers and the ground-truth executor all read it, so scheduling
  decisions are priced against the *current* pool rather than the
  construction-time one.
* :class:`ClusterEvent` / :class:`ElasticitySchedule` -- a deterministic,
  seeded stream of ``fail`` / ``recover`` / ``slowdown`` / ``restore``
  events consumed by the multi-layer engine
  (:class:`~repro.runtime.pipeline.MultiLayerFlexMoEEngine`), which
  evicts and re-homes experts off lost devices and refills recovered
  ones.

Capacity events extend the same stream beyond repair semantics:
``provision`` brings a standby device into the pool (possibly from a
slower accelerator generation, via ``factor``) and ``revoke`` removes a
device immediately, the way a spot-instance reclamation does. A pool
built with ``initial_live`` keeps standby headroom dark until an
autoscaler (:class:`~repro.sim.sources.AutoscalerSource`) provisions it,
which is how the pool grows beyond its seed size mid-run. See
``docs/autoscaling.md``.

Static heterogeneity (mixed GPU generations) lives in
:class:`~repro.config.ClusterConfig` scale factors and the profiled
figures; :class:`ClusterState` tracks only the *dynamic* departures from
that baseline. See ``docs/elasticity.md`` for the full model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.config import FaultConfig
from repro.exceptions import ElasticityError

#: Event kinds understood by the elastic runtime.
EVENT_KINDS = ("fail", "recover", "slowdown", "restore", "provision", "revoke")


@dataclass(frozen=True)
class ClusterEvent:
    """One elasticity event.

    Attributes:
        step: Training step at which the event fires (applied before the
            step's scheduling phase).
        kind: ``"fail"`` (device leaves the pool), ``"recover"`` (device
            rejoins, empty), ``"slowdown"`` (compute speed scaled by
            ``factor``), ``"restore"`` (speed back to 1.0),
            ``"provision"`` (standby device joins the pool, empty and
            cold, at ``factor`` speed -- a slower generation when below
            1.0), ``"revoke"`` (device leaves immediately, spot-style).
        gpu: Global index of the affected device.
        factor: Compute multiplier; meaningful for ``"slowdown"`` and
            ``"provision"``.
    """

    step: int
    kind: str
    gpu: int
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ElasticityError(f"event step must be >= 0, got {self.step}")
        if self.kind not in EVENT_KINDS:
            raise ElasticityError(
                f"event kind must be one of {EVENT_KINDS}, got {self.kind!r}"
            )
        if self.gpu < 0:
            raise ElasticityError(f"event gpu must be >= 0, got {self.gpu}")
        if self.factor <= 0:
            raise ElasticityError(f"event factor must be > 0, got {self.factor}")


class ClusterState:
    """Mutable runtime view of the device pool.

    Tracks, per GPU, whether the device is alive and its current dynamic
    speed factor (1.0 = nominal; static heterogeneity is *not* folded in
    here -- it lives in the profiled figures). Every mutation bumps
    :attr:`version`, which cost-model memo caches key on so stale
    what-if evaluations never survive an elasticity event.
    """

    def __init__(self, num_gpus: int, initial_live: int | None = None) -> None:
        """Build a pool of ``num_gpus`` devices.

        Args:
            initial_live: When set, only the first ``initial_live``
                devices start alive; the rest are dark standby headroom
                an autoscaler can ``provision`` into the pool later.
                ``None`` (default) starts every device alive.
        """
        if num_gpus < 1:
            raise ElasticityError("num_gpus must be >= 1")
        self._alive = np.ones(num_gpus, dtype=bool)
        if initial_live is not None:
            if not 1 <= initial_live <= num_gpus:
                raise ElasticityError(
                    f"initial_live must be in [1, {num_gpus}], "
                    f"got {initial_live}"
                )
            self._alive[initial_live:] = False
        self._speed = np.ones(num_gpus, dtype=float)
        self._version = 0
        # Read-only snapshot views handed to hot paths; refreshed lazily
        # when the version moves, so a quiet pool costs zero copies/step.
        self._views_version = -1
        self._live_view: np.ndarray | None = None
        self._speed_view: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_gpus(self) -> int:
        return self._alive.size

    @property
    def version(self) -> int:
        """Monotone counter bumped by every mutation (memo invalidation)."""
        return self._version

    @property
    def num_live(self) -> int:
        return int(self._alive.sum())

    def live_mask(self) -> np.ndarray:
        """Boolean liveness vector (copy)."""
        return self._alive.copy()

    def _refresh_views(self) -> None:
        live = self._alive.copy()
        live.setflags(write=False)
        speed = self._speed.copy()
        speed.setflags(write=False)
        self._live_view = live
        self._speed_view = speed
        self._views_version = self._version

    def live_view(self) -> np.ndarray:
        """Read-only liveness vector, cached until the next mutation.

        The zero-copy twin of :meth:`live_mask` for per-step hot paths
        (cost models, planners, the executor): between elasticity events
        repeated calls return the same frozen array instead of allocating
        an O(G) copy each.
        """
        if self._views_version != self._version:
            self._refresh_views()
        return self._live_view

    def speed_view(self) -> np.ndarray:
        """Read-only speed-factor vector, cached until the next mutation
        (see :meth:`live_view`)."""
        if self._views_version != self._version:
            self._refresh_views()
        return self._speed_view

    def live_gpus(self) -> tuple[int, ...]:
        return tuple(int(g) for g in np.flatnonzero(self._alive))

    def is_alive(self, gpu: int) -> bool:
        self._check_gpu(gpu)
        return bool(self._alive[gpu])

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def fail(self, gpu: int) -> None:
        """Remove ``gpu`` from the pool. The last live device cannot fail."""
        self._check_gpu(gpu)
        if not self._alive[gpu]:
            raise ElasticityError(f"gpu {gpu} is already failed")
        if self.num_live <= 1:
            raise ElasticityError(
                f"cannot fail gpu {gpu}: it is the last live device"
            )
        self._alive[gpu] = False
        self._version += 1

    def recover(self, gpu: int) -> None:
        """Return ``gpu`` to the pool (empty; the runtime refills it).

        The rejoining device is a rebooted or replacement unit, so any
        dynamic slowdown it carried before failing is cleared.
        """
        self._check_gpu(gpu)
        if self._alive[gpu]:
            raise ElasticityError(f"gpu {gpu} is already alive")
        self._alive[gpu] = True
        self._speed[gpu] = 1.0
        self._version += 1

    def provision(self, gpu: int, factor: float = 1.0) -> None:
        """Bring a dark device into the pool at ``factor`` speed.

        The joining device is empty and cold -- the runtime re-homes
        experts onto it, exactly like a recovery refill. ``factor``
        below 1.0 models a slower accelerator generation joining a
        heterogeneous pool.
        """
        self._check_gpu(gpu)
        if self._alive[gpu]:
            raise ElasticityError(f"gpu {gpu} is already alive")
        if factor <= 0:
            raise ElasticityError(f"speed factor must be > 0, got {factor}")
        self._alive[gpu] = True
        self._speed[gpu] = float(factor)
        self._version += 1

    def set_speed(self, gpu: int, factor: float) -> None:
        """Set ``gpu``'s dynamic compute multiplier (1.0 = nominal)."""
        self._check_gpu(gpu)
        if factor <= 0:
            raise ElasticityError(f"speed factor must be > 0, got {factor}")
        self._speed[gpu] = float(factor)
        self._version += 1

    def _check_gpu(self, gpu: int) -> None:
        if not 0 <= gpu < self.num_gpus:
            raise ElasticityError(
                f"gpu {gpu} out of range [0, {self.num_gpus})"
            )


class ElasticitySchedule:
    """Immutable, step-ordered stream of elasticity events.

    Args:
        events: Events in any order; stored sorted by ``(step, insertion
            order)`` so simultaneous events fire deterministically.
    """

    def __init__(self, events: Iterable[ClusterEvent]) -> None:
        ordered = sorted(enumerate(events), key=lambda pair: (pair[1].step, pair[0]))
        self._events: tuple[ClusterEvent, ...] = tuple(ev for _, ev in ordered)

    @property
    def events(self) -> tuple[ClusterEvent, ...]:
        return self._events

    def __len__(self) -> int:
        return len(self._events)

    def events_at(self, step: int) -> tuple[ClusterEvent, ...]:
        """Events firing exactly at ``step``."""
        return tuple(ev for ev in self._events if ev.step == step)

    def first_failure_step(self) -> int | None:
        """Step of the earliest ``fail`` event, or ``None``."""
        steps = [ev.step for ev in self._events if ev.kind == "fail"]
        return min(steps) if steps else None

    @classmethod
    def from_fault_config(
        cls, config: FaultConfig, num_gpus: int
    ) -> "ElasticitySchedule":
        """Build a seeded failure/straggler schedule for a ``num_gpus`` pool.

        Failed devices are distinct; stragglers are drawn from the
        remaining devices when enough exist. The same ``(config, num_gpus)``
        pair always yields a bit-identical event stream.
        """
        if config.num_failures >= num_gpus:
            raise ElasticityError(
                f"cannot fail {config.num_failures} of {num_gpus} devices: "
                "at least one must survive"
            )
        rng = np.random.default_rng(config.seed)
        order = [int(g) for g in rng.permutation(num_gpus)]
        fail_gpus = order[: config.num_failures]
        straggler_pool = order[config.num_failures :]
        if config.num_stragglers > len(straggler_pool):
            raise ElasticityError(
                f"cannot pick {config.num_stragglers} stragglers: only "
                f"{len(straggler_pool)} of {num_gpus} devices are not "
                "already scheduled to fail"
            )
        stragglers = straggler_pool[: config.num_stragglers]

        events: list[ClusterEvent] = []
        for i, gpu in enumerate(fail_gpus):
            fail_at = config.failure_step + i * config.failure_spacing
            events.append(ClusterEvent(step=fail_at, kind="fail", gpu=gpu))
            if config.recovery_steps is not None:
                events.append(
                    ClusterEvent(
                        step=fail_at + config.recovery_steps,
                        kind="recover",
                        gpu=gpu,
                    )
                )
        for gpu in stragglers:
            events.append(
                ClusterEvent(
                    step=config.straggler_step,
                    kind="slowdown",
                    gpu=gpu,
                    factor=config.straggler_factor,
                )
            )
            if config.straggler_duration is not None:
                events.append(
                    ClusterEvent(
                        step=config.straggler_step + config.straggler_duration,
                        kind="restore",
                        gpu=gpu,
                    )
                )
        return cls(events)


def redistribute_assignments(
    assignments: np.ndarray, live_mask: np.ndarray
) -> np.ndarray:
    """Move the tokens routed to dead devices onto the live ones.

    ``assignments`` is ``(layers, experts, gpus)``. Each expert's dead
    total is spread evenly over the live devices, the remainder one
    token each to the lowest-indexed ones. Every layer is re-sharded in
    one vectorized pass instead of a Python call per layer, which is
    what keeps multi-dozen-layer pipelines O(1) in Python overhead per
    step. Returns the input object itself when every device is live
    (the common case).
    """
    assignments = np.asarray(assignments)
    live_mask = np.asarray(live_mask, dtype=bool)
    if assignments.ndim != 3 or assignments.shape[2] != live_mask.size:
        raise ElasticityError(
            f"assignments shape {assignments.shape} does not match "
            f"{live_mask.size} devices (want (layers, experts, gpus))"
        )
    if live_mask.all():
        return assignments
    live = np.flatnonzero(live_mask)
    if live.size == 0:
        raise ElasticityError("cannot redistribute tokens: no live device")
    dead = np.flatnonzero(~live_mask)
    dead_totals = assignments[:, :, dead].sum(axis=2)  # (layers, experts)
    out = assignments.copy()
    out[:, :, dead] = 0
    base, remainder = np.divmod(dead_totals, live.size)
    out[:, :, live] += base[:, :, None] + (
        np.arange(live.size)[None, None, :] < remainder[:, :, None]
    )
    return out
