"""Unit tests for the cluster topology and device model."""

import numpy as np
import pytest

from repro.cluster.topology import ClusterTopology
from repro.config import ClusterConfig
from repro.exceptions import TopologyError


class TestClusterTopology:
    def test_device_enumeration(self, topology):
        assert topology.num_gpus == 8
        assert [d.index for d in topology.devices] == list(range(8))
        assert topology.devices[5].node == 1
        assert topology.devices[5].local_rank == 1

    def test_same_node(self, topology):
        assert topology.node_of(0) == topology.node_of(3)
        assert topology.node_of(0) != topology.node_of(4)

    def test_bandwidth_intra_vs_inter(self, topology, cluster_config):
        assert topology.bandwidth(0, 1) == cluster_config.intra_node_bandwidth
        assert topology.bandwidth(0, 4) == cluster_config.inter_node_bandwidth
        assert topology.bandwidth(0, 0) == ClusterTopology.LOCAL_COPY_BANDWIDTH

    def test_bandwidth_symmetric(self, topology):
        bw = topology.bandwidth_model().dense()
        assert np.array_equal(bw, bw.T)

    def test_latency_zero_on_diagonal(self, topology):
        assert topology.latency(2, 2) == 0.0
        assert topology.latency(0, 4) > topology.latency(0, 1)

    def test_nodes_spanned(self, topology):
        assert topology.nodes_spanned([0, 1]) == (0,)
        assert topology.nodes_spanned([1, 6]) == (0, 1)

    def test_min_group_bandwidth(self, topology, cluster_config):
        intra, _ = topology.group_link([0, 1, 2])
        inter, _ = topology.group_link([0, 1, 5])
        assert intra == cluster_config.intra_node_bandwidth
        assert inter == cluster_config.inter_node_bandwidth

    def test_min_group_bandwidth_singleton(self, topology):
        assert topology.group_link([3]) == (
            ClusterTopology.LOCAL_COPY_BANDWIDTH,
            0.0,
        )

    def test_min_group_bandwidth_empty_rejected(self, topology):
        with pytest.raises(TopologyError):
            topology.group_link([])

    def test_unknown_gpu_rejected(self, topology):
        with pytest.raises(TopologyError):
            topology.bandwidth(0, 99)
        with pytest.raises(TopologyError):
            topology.node_of(-1)


def pairwise_group_link(topology, gpus) -> tuple[float, float]:
    """Brute-force oracle: the slowest link and worst latency over every
    pair of distinct devices in the group."""
    devices = sorted(set(int(g) for g in gpus))
    pairs = [(a, b) for a in devices for b in devices if a != b]
    if not pairs:
        return ClusterTopology.LOCAL_COPY_BANDWIDTH, 0.0
    return (
        min(topology.bandwidth(a, b) for a, b in pairs),
        max(topology.latency(a, b) for a, b in pairs),
    )


class TestGroupLink:
    """``group_link`` is the one answer to a replica group's slowest link
    and worst hop, by node arithmetic; it must equal the pairwise
    definition exactly."""

    FABRICS = {
        "blocked-4096": ClusterConfig(num_nodes=512, gpus_per_node=8),
        "blocked-3x4": ClusterConfig(num_nodes=3, gpus_per_node=4),
        # Intra-node links slower than inter-node ones: the group's worst
        # link and hop are then whichever class it actually contains.
        "inverted-2x4": ClusterConfig(
            num_nodes=2,
            gpus_per_node=4,
            intra_node_bandwidth=10e9,
            inter_node_bandwidth=50e9,
            intra_node_latency=20e-6,
            inter_node_latency=1e-6,
        ),
    }

    @staticmethod
    def groups(topology, rng):
        num_gpus, gpn = topology.num_gpus, topology.config.gpus_per_node
        node = int(rng.integers(topology.num_nodes)) * gpn
        yield [node]  # one device
        yield [node + 1, node + 1, node + 1]  # one device, repeated
        yield [node, node + 1]  # one node
        yield list(range(node, node + gpn))  # a whole node
        yield [node + gpn - 1, (node + gpn) % num_gpus]  # two nodes, 1 each
        yield [node, node, (node + gpn) % num_gpus]  # repeat + spanning
        yield [node + 2, node + 1, node + 1, node]  # unsorted, repeated
        for size in (2, 3, 5, 9, 32):
            picks = rng.choice(num_gpus, size=min(size, num_gpus))
            yield picks.tolist()  # may repeat and span nodes

    @pytest.mark.parametrize("fabric", sorted(FABRICS))
    def test_matches_pairwise_oracle(self, fabric):
        topology = ClusterTopology(self.FABRICS[fabric])
        rng = np.random.default_rng(7)
        for _ in range(20):
            for group in self.groups(topology, rng):
                got = topology.group_link(group)
                assert got == pairwise_group_link(topology, group), group
                assert topology.group_link(np.array(group)) == got

    @pytest.mark.parametrize("fabric", sorted(FABRICS))
    def test_out_of_range_rejected(self, fabric):
        topology = ClusterTopology(self.FABRICS[fabric])
        for bad in ([-1, 0], [0, topology.num_gpus], [topology.num_gpus]):
            with pytest.raises(TopologyError):
                topology.group_link(bad)
