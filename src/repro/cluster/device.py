"""Device model: one simulated GPU within the cluster."""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import DeviceSpec, MoEModelConfig


@dataclass(frozen=True)
class Device:
    """A single accelerator identified by its global index.

    Attributes:
        index: Global GPU rank within the cluster (0-based).
        node: Index of the host node.
        local_rank: Rank within the host node.
        spec: Hardware capabilities.
        compute_scale: Static per-device compute multiplier (mixed GPU
            generations / persistent stragglers); 1.0 for a homogeneous
            pool.
        bandwidth_scale: Static per-device link multiplier; a link is
            bottlenecked by its slower endpoint.
    """

    index: int
    node: int
    local_rank: int
    spec: DeviceSpec
    compute_scale: float = 1.0
    bandwidth_scale: float = 1.0

    def tokens_per_second(self, model: MoEModelConfig) -> float:
        """Ground-truth expert throughput of this device for ``model``."""
        return self.spec.tokens_per_second(model) * self.compute_scale

    def __str__(self) -> str:
        return f"gpu{self.index}(node{self.node}.{self.local_rank})"
