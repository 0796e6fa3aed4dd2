"""Cluster topology: devices, nodes and the pairwise network fabric.

The topology exposes the two environmental quantities the paper's cost
models consume directly: the bandwidth matrix ``Bw(g, g')`` (Eq. 8) and the
locality structure (intra-node NVLink vs inter-node InfiniBand) that makes
the All-to-All model "topology-aware".

Both fabric matrices are *implicit*: every entry is one of three class
values (device-local, intra-node, inter-node), optionally modulated by
per-GPU NIC scale factors, so scalar and group queries are answered by
node arithmetic and a dense matrix is only materialized for the few
consumers that ask for one (via :meth:`ClusterTopology.bandwidth_model`).
A 4096-device topology therefore costs O(G) to build, not O(G^2).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.cluster.bandwidth import BandwidthModel
from repro.cluster.device import Device
from repro.config import ClusterConfig
from repro.exceptions import TopologyError


class ClusterTopology:
    """Immutable description of the simulated cluster.

    Args:
        config: Cluster shape and fabric parameters.

    The loop-back "bandwidth" (a GPU sending to itself) is modelled as an
    effectively infinite device-local copy so that purely local traffic costs
    ~nothing, matching real systems where local tokens never cross a link.
    """

    #: Effective bandwidth for device-local (g == g') transfers, bytes/s.
    LOCAL_COPY_BANDWIDTH = 1.5e12

    def __init__(self, config: ClusterConfig) -> None:
        self._config = config
        self._devices: list[Device] = [
            Device(
                index=node * config.gpus_per_node + local,
                node=node,
                local_rank=local,
                spec=config.device,
                compute_scale=config.compute_scale_of(
                    node * config.gpus_per_node + local
                ),
                bandwidth_scale=config.bandwidth_scale_of(
                    node * config.gpus_per_node + local
                ),
            )
            for node in range(config.num_nodes)
            for local in range(config.gpus_per_node)
        ]
        self._bw_model: BandwidthModel | None = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_dense_bandwidth(self) -> np.ndarray:
        """Explicit ``Bw`` matrix for NIC-scaled (non-blocked) clusters."""
        cfg = self._config
        nodes = np.arange(cfg.num_gpus) // cfg.gpus_per_node
        same_node = nodes[:, None] == nodes[None, :]
        bw = np.where(same_node, cfg.intra_node_bandwidth, cfg.inter_node_bandwidth)
        bw = bw.astype(float)
        # A point-to-point transfer is bottlenecked by the slower NIC.
        scales = np.array([d.bandwidth_scale for d in self._devices])
        bw *= np.minimum(scales[:, None], scales[None, :])
        np.fill_diagonal(bw, self.LOCAL_COPY_BANDWIDTH)
        return bw

    def bandwidth_model(self) -> BandwidthModel:
        """Ground-truth fabric as a :class:`BandwidthModel` (cached).

        Homogeneous clusters get the implicit node-blocked representation;
        clusters with per-GPU ``bandwidth_scales`` fall back to wrapping
        the explicit matrix (the min-of-endpoints bottleneck rule is not
        separable into link classes).
        """
        if self._bw_model is None:
            cfg = self._config
            if cfg.bandwidth_scales is None:
                self._bw_model = BandwidthModel.blocked(
                    cfg.num_nodes,
                    cfg.gpus_per_node,
                    self.LOCAL_COPY_BANDWIDTH,
                    cfg.intra_node_bandwidth,
                    cfg.inter_node_bandwidth,
                )
            else:
                self._bw_model = BandwidthModel.from_dense(
                    self._build_dense_bandwidth()
                )
        return self._bw_model

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def config(self) -> ClusterConfig:
        return self._config

    @property
    def num_gpus(self) -> int:
        return len(self._devices)

    @property
    def num_nodes(self) -> int:
        return self._config.num_nodes

    @property
    def devices(self) -> Sequence[Device]:
        return tuple(self._devices)

    def device(self, gpu: int) -> Device:
        self._check_gpu(gpu)
        return self._devices[gpu]

    def node_of(self, gpu: int) -> int:
        self._check_gpu(gpu)
        return self._devices[gpu].node

    def same_node(self, gpu_a: int, gpu_b: int) -> bool:
        return self.node_of(gpu_a) == self.node_of(gpu_b)

    def bandwidth(self, src: int, dst: int) -> float:
        """Point-to-point bandwidth ``Bw(src, dst)`` in bytes/s."""
        self._check_gpu(src)
        self._check_gpu(dst)
        if src == dst:
            return self.LOCAL_COPY_BANDWIDTH
        cfg = self._config
        if src // cfg.gpus_per_node == dst // cfg.gpus_per_node:
            bw = cfg.intra_node_bandwidth
        else:
            bw = cfg.inter_node_bandwidth
        if cfg.bandwidth_scales is not None:
            bw *= min(
                self._devices[src].bandwidth_scale,
                self._devices[dst].bandwidth_scale,
            )
        return float(bw)

    def latency(self, src: int, dst: int) -> float:
        """One-way message latency in seconds."""
        self._check_gpu(src)
        self._check_gpu(dst)
        if src == dst:
            return 0.0
        cfg = self._config
        if src // cfg.gpus_per_node == dst // cfg.gpus_per_node:
            return float(cfg.intra_node_latency)
        return float(cfg.inter_node_latency)

    def nodes_spanned(self, gpus: Iterable[int]) -> tuple[int, ...]:
        """Sorted node ids touched by ``gpus`` (dedup'd)."""
        return tuple(sorted({self.node_of(g) for g in gpus}))

    def group_link(self, gpus: Sequence[int]) -> tuple[float, float]:
        """Slowest link and worst one-way hop latency within a device group.

        The fabric terms of a ring collective over the group (Eq. 9's
        ``BPS(G')``, via
        :meth:`~repro.cluster.collectives.CollectiveCostModel.allreduce_time`).
        ``gpus`` may come in any order; a repeated id names the same
        device, and one device is a local copy:
        ``(LOCAL_COPY_BANDWIDTH, 0.0)``.

        Node arithmetic on the sorted holders: the group spans nodes iff
        its first and last devices do, and two distinct devices share a
        node iff some neighbouring pair does. NIC-scaled links are not
        one value per class, so that fabric's bandwidth is the minimum of
        its dense submatrix.
        """
        holders = np.array(gpus, dtype=np.int64)
        if holders.size == 0:
            raise TopologyError("device group must be non-empty")
        holders.sort()
        first, last = int(holders[0]), int(holders[-1])
        if first < 0 or last >= self.num_gpus:
            raise TopologyError(
                f"gpu out of range [0, {self.num_gpus}) in group"
            )
        if first == last:
            return self.LOCAL_COPY_BANDWIDTH, 0.0
        cfg = self._config
        nodes = holders // cfg.gpus_per_node
        spans = nodes[0] != nodes[-1]
        # A repeated device is also a same-node neighbour pair.
        shares = np.count_nonzero(nodes[1:] == nodes[:-1]) > np.count_nonzero(
            holders[1:] == holders[:-1]
        )
        latency = max(
            cfg.intra_node_latency if shares else 0.0,
            cfg.inter_node_latency if spans else 0.0,
        )
        if cfg.bandwidth_scales is None:
            bandwidth = min(
                cfg.intra_node_bandwidth if shares else np.inf,
                cfg.inter_node_bandwidth if spans else np.inf,
            )
        else:
            devices = np.unique(holders)
            sub = self.bandwidth_model().submatrix(devices, devices)
            bandwidth = sub[~np.eye(devices.size, dtype=bool)].min()
        return float(bandwidth), float(latency)

    def _check_gpu(self, gpu: int) -> None:
        if not 0 <= gpu < self.num_gpus:
            raise TopologyError(f"gpu {gpu} out of range [0, {self.num_gpus})")

    def __repr__(self) -> str:
        return (
            f"ClusterTopology(nodes={self.num_nodes}, "
            f"gpus_per_node={self._config.gpus_per_node})"
        )
