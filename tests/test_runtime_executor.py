"""Unit tests for the ground-truth step executor."""

import numpy as np
import pytest

from repro.cluster.groups import CommunicatorGroupCache
from repro.core.cost_model import MoECostModel
from repro.core.placement import Placement
from repro.core.router import FlexibleTokenRouter
from repro.exceptions import SimulationError
from repro.runtime.executor import PipelinedStepExecutor, StepExecutor


@pytest.fixture
def executor(topology, model_config) -> StepExecutor:
    return StepExecutor(topology, model_config, jitter=0.0, seed=0)


class TestRealOperations:
    def test_compute_linear_in_tokens(self, executor):
        assert executor.real_compute_time(2000, 0) == pytest.approx(
            2 * executor.real_compute_time(1000, 0)
        )

    def test_local_a2a_free(self, executor):
        flow = np.zeros((8, 8))
        flow[3, 3] = 1000
        assert executor.real_a2a_pass_time(flow) == 0.0

    def test_allreduce_time_matches_collectives(self, executor, collectives, model_config):
        group = (0, 1, 4)
        assert executor.real_allreduce_time(
            model_config.expert_bytes, group
        ) == pytest.approx(
            collectives.allreduce_time(model_config.expert_bytes, group)
        )

    @pytest.mark.parametrize("inference", [False, True])
    def test_compute_priced_like_execute_and_cost_model(
        self, topology, model_config, exact_profile, placement, inference
    ):
        """One Eq. 7 term: at inference every pricer charges the forward
        share, training charges forward + backward."""
        executor = StepExecutor(
            topology, model_config, jitter=0.0, inference=inference
        )
        cost_model = MoECostModel(
            exact_profile, model_config, inference=inference
        )
        flow = np.zeros((8, 8))
        flow[3, 3] = 10_000
        real = executor.real_compute_time(10_000, 3)
        assert real == pytest.approx(cost_model.compute_time(10_000, 3))
        assert real == pytest.approx(
            executor.execute(flow, placement).compute_time
        )

    def test_jitter_perturbs_but_reproducibly(self, topology, model_config):
        a = StepExecutor(topology, model_config, jitter=0.05, seed=3)
        b = StepExecutor(topology, model_config, jitter=0.05, seed=3)
        exact = StepExecutor(topology, model_config, jitter=0.0)
        ta = a.real_compute_time(10_000, 0)
        tb = b.real_compute_time(10_000, 0)
        te = exact.real_compute_time(10_000, 0)
        assert ta == tb
        assert ta != te
        assert ta == pytest.approx(te, rel=0.3)


class TestExecute:
    def test_step_composition(self, executor, placement, assignment):
        plan = FlexibleTokenRouter().route(assignment, placement)
        timing = executor.execute(plan.flow, placement)
        assert timing.step_time == pytest.approx(
            timing.a2a_time
            + timing.compute_time
            + timing.sync_time
            + timing.adjustment_blocking
        )
        assert timing.a2a_time > 0
        assert timing.compute_time > 0

    def test_no_replicas_no_sync(self, executor, model_config, topology):
        placement = Placement.expert_parallel(
            model_config.num_experts, topology.num_gpus
        )
        flow = np.zeros((topology.num_gpus, topology.num_gpus))
        flow[0, 0] = 100
        timing = executor.execute(flow, placement)
        assert timing.sync_time == 0.0

    def test_replicated_placement_pays_sync(self, executor, placement):
        timing = executor.execute(np.zeros((8, 8)), placement)
        assert timing.sync_time > 0  # balanced(8, 8, 2) replicates experts

    def test_adjustment_blocking_added(self, executor, placement, assignment):
        """Blocking is charged once per step by the pipelined executor,
        on top of the layer timings, and must not be negative."""
        plan = FlexibleTokenRouter().route(assignment, placement)
        pipe = PipelinedStepExecutor(
            executor, num_moe_layers=1, model_dense_compute=False
        )
        base = pipe.execute([plan.flow], [placement])
        blocked = pipe.execute([plan.flow], [placement], adjustment_blocking=0.5)
        assert base.step_time == executor.execute(plan.flow, placement).step_time
        assert blocked.adjustment_blocking == 0.5
        assert blocked.step_time == pytest.approx(base.step_time + 0.5)
        with pytest.raises(SimulationError, match="adjustment_blocking"):
            pipe.execute([plan.flow], [placement], adjustment_blocking=-1)

    def test_group_cache_charged_on_new_groups(self, topology, model_config, placement):
        cache = CommunicatorGroupCache(capacity=16, creation_cost=0.25)
        executor = StepExecutor(
            topology, model_config, jitter=0.0, group_cache=cache
        )
        flow = np.zeros((8, 8))
        first = executor.execute(flow, placement)
        second = executor.execute(flow, placement)
        assert first.sync_time > second.sync_time  # creations amortized
        assert cache.stats.misses > 0
        assert cache.stats.hits > 0

    def test_utilization_bounds(self, executor, placement, assignment):
        plan = FlexibleTokenRouter().route(assignment, placement)
        timing = executor.execute(plan.flow, placement)
        assert 0.0 <= timing.compute_utilization <= 1.0

    def test_validation(self, executor, placement):
        # Not a (gpus, gpus) flow: a dense route tensor, a non-square or a
        # wrong-size matrix.
        for shape in ((8, 8, 8), (8, 4), (4, 4), (8,)):
            with pytest.raises(SimulationError):
                executor.execute(np.zeros(shape), placement)
        for bad in (-1.0, np.nan, np.inf):
            flow = np.zeros((8, 8))
            flow[2, 5] = bad
            with pytest.raises(SimulationError):
                executor.execute(flow, placement)
            with pytest.raises(SimulationError):
                executor.real_a2a_pass_time(flow)
        with pytest.raises(SimulationError):
            executor.real_compute_time(-5, 0)
