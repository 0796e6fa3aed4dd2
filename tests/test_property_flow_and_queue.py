"""Property-based tests: flow-control and adjustment-transfer invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cluster.collectives import CollectiveCostModel
from repro.cluster.topology import ClusterTopology
from repro.config import ClusterConfig, MoEModelConfig
from repro.core.flow_control import GateFlowController
from repro.core.placement import Placement
from repro.core.primitives import Expand, Migrate, Shrink
from repro.runtime.adjustment import transfer_seconds

TOPOLOGY = ClusterTopology(ClusterConfig(num_nodes=2, gpus_per_node=4))
COLLECTIVES = CollectiveCostModel(TOPOLOGY)
MODEL = MoEModelConfig("prop-q", 2, 128, 512, 8)


def assignments(num_experts=8, num_gpus=8, max_tokens=5000):
    return st.lists(
        st.integers(0, max_tokens),
        min_size=num_experts * num_gpus,
        max_size=num_experts * num_gpus,
    ).map(
        lambda f: np.array(f, dtype=np.int64).reshape(num_experts, num_gpus)
    )


@settings(max_examples=60, deadline=None)
@given(
    frames=st.lists(assignments(), min_size=1, max_size=6),
    watermark=st.floats(1.01, 5.0),
)
def test_flow_control_never_loses_tokens(frames, watermark):
    """Across any step sequence: admitted + backlog == assigned."""
    controller = GateFlowController(watermark_factor=watermark)
    placement = Placement.balanced(8, 8, 2)
    total_in = 0
    total_out = 0
    for frame in frames:
        admitted = controller.admit(frame, placement)
        assert (admitted >= 0).all()
        total_in += int(frame.sum())
        total_out += int(admitted.sum())
    assert total_out + controller.backlog_tokens == total_in


@settings(max_examples=60, deadline=None)
@given(assignment=assignments(), watermark=st.floats(1.01, 3.0))
def test_flow_control_per_gpu_origins_preserved(assignment, watermark):
    """Deferral removes tokens per (expert, gpu) cell, never shifts them."""
    controller = GateFlowController(watermark_factor=watermark)
    placement = Placement.balanced(8, 8, 2)
    admitted = controller.admit(assignment, placement)
    assert (admitted <= assignment).all()


def actions_strategy():
    expands = st.builds(
        Expand,
        expert=st.integers(0, 7),
        gpu=st.integers(0, 7),
        source_gpu=st.integers(0, 7),
    )
    shrinks = st.builds(
        Shrink, expert=st.integers(0, 7), gpu=st.integers(0, 7)
    )
    migrates = st.builds(
        Migrate,
        expert_a=st.integers(0, 7),
        gpu_a=st.integers(0, 3),
        expert_b=st.integers(0, 7),
        gpu_b=st.integers(4, 7),
    )
    return st.lists(st.one_of(expands, shrinks, migrates), max_size=12)


@settings(max_examples=60, deadline=None)
@given(actions=actions_strategy())
def test_queue_merging_never_slower(actions):
    """Merging + parallel waves never exceed the naive serial schedule."""
    merged = transfer_seconds(actions, MODEL.expert_state_bytes, COLLECTIVES)
    serial = sum(
        COLLECTIVES.p2p_time(MODEL.expert_state_bytes, src, dst)
        for action in actions
        for src, dst in action.transfers()
    )
    assert merged <= serial + 1e-9
