"""Profiling harness producing the cost-model's environmental variables.

The paper estimates its cost models "by leveraging a profiling-based
approach: we first profile the function's running time under different input
sizes and then estimate the corresponding environmental variables" (Section
3.4). This module mirrors that workflow against the simulated cluster:

* ``TPS`` — tokens/second of one expert on each GPU, fit from timed runs of
  the expert compute kernel over a sweep of input sizes;
* ``Bw(g, g')`` — pairwise bandwidth, fit from timed transfers. Real
  fabrics have three link classes (device-local, intra-node, inter-node),
  so at datacenter scale profiling probes one representative link per
  class and reconstructs the implicit node-blocked
  :class:`~repro.cluster.bandwidth.BandwidthModel` instead of timing all
  O(G^2) pairs — 4096 devices take three probes, not 16M. Small fabrics
  keep the dense per-pair sweep;
* ``BPS(G')`` — AllReduce bytes/second per device group, measured lazily and
  cached (enumerating all groups up-front is exponential; the paper
  enumerates the groups it actually uses).

Measurements carry configurable multiplicative noise so that the profile is
an *estimate* of the ground truth, letting the Figure 6c experiment compare
estimated vs real costs meaningfully.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.cluster.bandwidth import BandwidthModel
from repro.cluster.collectives import CollectiveCostModel
from repro.cluster.topology import ClusterTopology
from repro.config import HIERARCHICAL_AUTO_THRESHOLD, MoEModelConfig
from repro.exceptions import ProfilingError


@dataclass
class ClusterProfile:
    """Profiled environmental variables consumed by the cost models.

    Attributes:
        tps: Per-GPU tokens/second for one expert of the profiled model.
        bandwidth: Estimated ``Bw(g, g')`` as a
            :class:`~repro.cluster.bandwidth.BandwidthModel`. A plain
            dense matrix is also accepted at construction (hand-built
            test profiles) and is wrapped on init.
        model: The model config the TPS figures were profiled for.
    """

    tps: np.ndarray
    bandwidth: BandwidthModel | np.ndarray
    model: MoEModelConfig
    _bps_cache: dict[tuple[int, ...], float] = field(default_factory=dict)
    _collectives: CollectiveCostModel | None = None
    _noise: float = 0.0
    _rng_state: np.random.Generator | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.bandwidth, BandwidthModel):
            self.bandwidth = BandwidthModel.from_dense(
                np.asarray(self.bandwidth, dtype=float)
            )

    def bandwidth_model(self) -> BandwidthModel:
        """The estimated fabric, for implicit (non-dense) queries."""
        return self.bandwidth

    def tokens_per_second(self, gpu: int) -> float:
        if not 0 <= gpu < len(self.tps):
            raise ProfilingError(f"no TPS profile for gpu {gpu}")
        return float(self.tps[gpu])

    def link_bandwidth(self, src: int, dst: int) -> float:
        n = self.bandwidth.num_gpus
        if not (0 <= src < n and 0 <= dst < n):
            raise ProfilingError(f"no bandwidth profile for link {src}->{dst}")
        return self.bandwidth.link(src, dst)

    def allreduce_bps(self, group: Sequence[int]) -> float:
        """Profiled ``BPS`` for ``group``, measuring and caching on miss.

        The probe payload matches the model's expert-gradient size — the
        message the training loop actually AllReduces — so per-hop latency
        is amortized exactly as it will be at runtime.
        """
        key = tuple(sorted(set(group)))
        if not key:
            raise ProfilingError("device group must be non-empty")
        if key not in self._bps_cache:
            if self._collectives is None:
                raise ProfilingError(
                    f"group {key} was not profiled and no collective model "
                    "is attached for lazy measurement"
                )
            truth = self._collectives.allreduce_bps(
                key, nbytes=max(1, self.model.expert_bytes)
            )
            self._bps_cache[key] = truth * self._noise_factor()
        return self._bps_cache[key]

    def _noise_factor(self) -> float:
        if self._noise <= 0 or self._rng_state is None:
            return 1.0
        return float(
            np.clip(self._rng_state.normal(1.0, self._noise), 0.5, 1.5)
        )


class Profiler:
    """Measures TPS / bandwidth / BPS against a simulated cluster.

    Args:
        topology: The cluster to profile.
        noise: Relative standard deviation of measurement noise. The paper
            reports <3% average cost-model error (Figure 6c); the default
            noise level is calibrated so our estimates land in that regime.
        seed: RNG seed for reproducible noise.
        repeats: Measurements averaged per probe, reducing noise by
            ``sqrt(repeats)`` as real profiling does.
    """

    def __init__(
        self,
        topology: ClusterTopology,
        noise: float = 0.02,
        seed: int = 0,
        repeats: int = 3,
    ) -> None:
        if noise < 0:
            raise ProfilingError("noise must be >= 0")
        if repeats < 1:
            raise ProfilingError("repeats must be >= 1")
        self._topology = topology
        self._collectives = CollectiveCostModel(topology)
        self._noise = noise
        self._repeats = repeats
        self._rng = np.random.default_rng(seed)

    def _measure(self, truth: float) -> float:
        """One averaged noisy measurement of a ground-truth quantity."""
        if self._noise == 0:
            return truth
        samples = self._rng.normal(truth, self._noise * truth, self._repeats)
        return float(np.clip(samples.mean(), 0.25 * truth, 4.0 * truth))

    def profile_tps(self, model: MoEModelConfig) -> np.ndarray:
        """Per-GPU expert throughput, estimated from timed compute probes."""
        return np.array(
            [
                self._measure(device.tokens_per_second(model))
                for device in self._topology.devices
            ]
        )

    def profile_bandwidth(self) -> BandwidthModel:
        """Estimated ``Bw(g, g')`` from timed point-to-point probes.

        Datacenter-scale fabrics are probed per link *class* —
        one local-copy, one intra-node and one inter-node measurement, in
        that fixed order so the noise stream is reproducible — which keeps
        the estimate exactly node-blocked and the probe count independent
        of cluster size (4096 devices take three probes, not 16M).  At or
        below :data:`~repro.config.HIERARCHICAL_AUTO_THRESHOLD` devices
        the exhaustive per-pair sweep is retained: it is cheap there and
        keeps small-scale noise streams identical to the reference
        profiling path.
        """
        if self._topology.num_gpus > HIERARCHICAL_AUTO_THRESHOLD:
            local, intra, inter = self._topology.bandwidth_model().class_values
            cfg = self._topology.config
            return BandwidthModel.blocked(
                cfg.num_nodes,
                cfg.gpus_per_node,
                self._measure(local),
                self._measure(intra),
                self._measure(inter),
            )
        n = self._topology.num_gpus
        bw = np.empty((n, n))
        for src in range(n):
            for dst in range(n):
                bw[src, dst] = self._measure(self._topology.bandwidth(src, dst))
        return BandwidthModel.from_dense(bw)

    def profile(self, model: MoEModelConfig) -> ClusterProfile:
        """Full profile for ``model`` over this cluster.

        AllReduce groups are profiled lazily on first use (see
        :meth:`ClusterProfile.allreduce_bps`).
        """
        profile = ClusterProfile(
            tps=self.profile_tps(model),
            bandwidth=self.profile_bandwidth(),
            model=model,
        )
        profile._collectives = self._collectives
        profile._noise = self._noise / np.sqrt(self._repeats)
        profile._rng_state = self._rng
        return profile
