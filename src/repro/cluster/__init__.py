"""Simulated GPU cluster substrate.

This package replaces the paper's physical 64-GPU A100 testbed with an
explicit model of devices, the network fabric connecting them, collective
communication costs, and a profiling harness. FlexMoE's scheduling decisions
are driven entirely by profiled cost tables (Section 3.4 of the paper), so
the substrate exposes exactly those quantities: per-device TPS, pairwise
bandwidth ``Bw(g, g')`` and per-group AllReduce throughput ``BPS(G')``.
"""

from repro.cluster.collectives import CollectiveCostModel
from repro.cluster.device import Device
from repro.cluster.events import (
    ClusterEvent,
    ClusterState,
    ElasticitySchedule,
    redistribute_assignments,
)
from repro.cluster.groups import CommunicatorGroupCache, ordered_allreduce_schedule
from repro.cluster.profiler import ClusterProfile, Profiler
from repro.cluster.topology import ClusterTopology

__all__ = [
    "ClusterEvent",
    "ClusterProfile",
    "ClusterState",
    "ClusterTopology",
    "CollectiveCostModel",
    "CommunicatorGroupCache",
    "Device",
    "ElasticitySchedule",
    "Profiler",
    "ordered_allreduce_schedule",
    "redistribute_assignments",
]
