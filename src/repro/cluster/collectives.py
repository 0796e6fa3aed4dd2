"""Analytic cost models for collective communication.

These implement the communication side of the paper's cost models: NCCL
point-to-point transfers (used by ``Expand``/``Migrate``), ring AllReduce
(used for replica gradient synchronization, Eq. 9) and broadcast (used by the
FasterMoE shadowing baseline).

The AllReduce model follows the standard ring formulation: each of ``n``
participants sends ``2 * (n - 1) / n`` of the payload over its slowest link,
plus per-hop latency. ``BPS(G')`` — the bytes-per-second figure the paper
profiles per device group — falls out as ``payload / time``.
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster.topology import ClusterTopology
from repro.exceptions import TopologyError


class CollectiveCostModel:
    """Ground-truth communication costs over a :class:`ClusterTopology`."""

    def __init__(self, topology: ClusterTopology) -> None:
        self._topology = topology

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def p2p_time(self, nbytes: float, src: int, dst: int) -> float:
        """Seconds to move ``nbytes`` from ``src`` to ``dst``."""
        if nbytes < 0:
            raise TopologyError(f"nbytes must be >= 0, got {nbytes}")
        if nbytes == 0 or src == dst:
            return 0.0
        topo = self._topology
        return topo.latency(src, dst) + nbytes / topo.bandwidth(src, dst)

    # ------------------------------------------------------------------
    # AllReduce
    # ------------------------------------------------------------------
    def allreduce_time(self, nbytes: float, group: Sequence[int]) -> float:
        """Seconds for a ring AllReduce of ``nbytes`` across ``group``."""
        if nbytes < 0:
            raise TopologyError(f"nbytes must be >= 0, got {nbytes}")
        group = sorted(set(group))
        if not group:
            raise TopologyError("AllReduce group must be non-empty")
        if len(group) == 1 or nbytes == 0:
            return 0.0
        n = len(group)
        bottleneck, latency = self._topology.group_link(group)
        transfer = 2.0 * (n - 1) / n * nbytes / bottleneck
        return transfer + 2.0 * (n - 1) * latency

    def allreduce_bps(self, group: Sequence[int], nbytes: float = 64 * 1024**2) -> float:
        """Effective bytes-per-second ``BPS(G')`` for a device group.

        The paper profiles this quantity per group before training; we report
        it for a representative payload so latency is amortized consistently.
        """
        group = sorted(set(group))
        if len(group) <= 1:
            return self._topology.LOCAL_COPY_BANDWIDTH
        time = self.allreduce_time(nbytes, group)
        return nbytes / time

    # ------------------------------------------------------------------
    # Broadcast (FasterMoE shadowing)
    # ------------------------------------------------------------------
    def broadcast_time(self, nbytes: float, root: int, group: Sequence[int]) -> float:
        """Seconds to broadcast ``nbytes`` from ``root`` to ``group``.

        Modelled as a pipelined ring broadcast bottlenecked by the slowest
        link, which matches NCCL's behaviour for large payloads.
        """
        if nbytes < 0:
            raise TopologyError(f"nbytes must be >= 0, got {nbytes}")
        group = sorted(set(group) | {root})
        if len(group) == 1 or nbytes == 0:
            return 0.0
        bottleneck, latency = self._topology.group_link(group)
        return nbytes / bottleneck + (len(group) - 1) * latency
