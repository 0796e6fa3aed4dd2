"""Unit tests for the gate flow-controller."""

import numpy as np
import pytest

from repro.core.flow_control import GateFlowController
from repro.core.placement import Placement
from repro.exceptions import RoutingError


@pytest.fixture
def small_placement() -> Placement:
    return Placement.balanced(4, 4, 2)


class TestAdmission:
    def test_balanced_traffic_passes_through(self, small_placement):
        controller = GateFlowController(watermark_factor=2.0)
        assignment = np.full((4, 4), 100, dtype=np.int64)
        admitted = controller.admit(assignment, small_placement)
        assert np.array_equal(admitted, assignment)
        assert controller.backlog_tokens == 0

    def test_spike_deferred(self, small_placement):
        controller = GateFlowController(watermark_factor=1.5)
        assignment = np.full((4, 4), 100, dtype=np.int64)
        assignment[0] = 5000  # hot expert spike
        admitted = controller.admit(assignment, small_placement)
        assert admitted.sum() < assignment.sum()
        assert controller.backlog_tokens > 0

    def test_deferred_tokens_reinjected_next_step(self, small_placement):
        controller = GateFlowController(watermark_factor=1.5)
        spike = np.full((4, 4), 100, dtype=np.int64)
        spike[0] = 5000
        admitted1 = controller.admit(spike, small_placement)
        deferred = int(spike.sum() - admitted1.sum())
        calm = np.full((4, 4), 100, dtype=np.int64)
        admitted2 = controller.admit(calm, small_placement)
        # No token is ever dropped: across both steps everything admitted
        # except what is still backlogged.
        total_in = spike.sum() + calm.sum()
        total_out = admitted1.sum() + admitted2.sum()
        assert total_out + controller.backlog_tokens == total_in
        assert deferred > 0

    def test_backlog_age_valve_releases_everything(self, small_placement):
        controller = GateFlowController(
            watermark_factor=1.01, max_backlog_steps=2
        )
        spike = np.full((4, 4), 10, dtype=np.int64)
        spike[0] = 10_000
        released_everything = False
        total_admitted = 0
        for _ in range(6):
            admitted = controller.admit(spike, small_placement)
            total_admitted += int(admitted.sum())
            if controller.backlog_tokens == 0:
                released_everything = True
        assert released_everything

    def test_infinite_watermark_disables(self, small_placement):
        controller = GateFlowController(watermark_factor=float("inf"))
        spike = np.full((4, 4), 10, dtype=np.int64)
        spike[0] = 100_000
        admitted = controller.admit(spike, small_placement)
        assert np.array_equal(admitted, spike)

    def test_proportional_deferral_preserves_sources(self, small_placement):
        controller = GateFlowController(watermark_factor=1.2)
        assignment = np.zeros((4, 4), dtype=np.int64)
        assignment[0] = [4000, 2000, 1000, 1000]
        admitted = controller.admit(assignment, small_placement)
        deferred = assignment - admitted
        # deferral roughly proportional to each source's share
        assert deferred[0, 0] > deferred[0, 2]

    def test_shape_change_rejected(self, small_placement):
        controller = GateFlowController(watermark_factor=1.1)
        spike = np.full((4, 4), 10, dtype=np.int64)
        spike[0] = 10_000
        controller.admit(spike, small_placement)
        with pytest.raises(RoutingError):
            controller.admit(np.zeros((5, 4), dtype=np.int64), small_placement)

    def test_validation(self):
        with pytest.raises(RoutingError):
            GateFlowController(watermark_factor=0)
        with pytest.raises(RoutingError):
            GateFlowController(max_backlog_steps=0)


class TestWatermarks:
    def test_watermarks_scale_with_replicas(self, small_placement):
        controller = GateFlowController(watermark_factor=1.0)
        assignment = np.full((4, 4), 100, dtype=np.int64)
        marks = controller.watermarks(assignment, small_placement)
        assert marks.shape == (4,)
        assert (marks >= 1).all()
