"""Property-based tests: cost-model invariants (Eqs. 5, 7-9)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.profiler import Profiler
from repro.cluster.topology import ClusterTopology
from repro.config import ClusterConfig, MoEModelConfig
from repro.core.cost_model import MoECostModel
from repro.core.placement import Placement
from repro.core.router import FlexibleTokenRouter


def build_cost_model(seed: int = 0) -> tuple[MoECostModel, Placement]:
    cluster = ClusterConfig(num_nodes=2, gpus_per_node=4)
    model = MoEModelConfig("prop", 2, 128, 512, 8)
    topo = ClusterTopology(cluster)
    profile = Profiler(topo, noise=0.0, seed=seed).profile(model)
    return MoECostModel(profile, model), Placement.balanced(8, 8, 2)


COST_MODEL, PLACEMENT = build_cost_model()
ROUTER = FlexibleTokenRouter()


def assignments(max_tokens=20_000):
    return st.lists(
        st.integers(0, max_tokens), min_size=64, max_size=64
    ).map(lambda f: np.array(f, dtype=np.int64).reshape(8, 8))


@settings(max_examples=50, deadline=None)
@given(assignment=assignments())
def test_step_time_non_negative_and_max_of_gpus(assignment):
    plan = ROUTER.route(assignment, PLACEMENT)
    breakdown = COST_MODEL.step_breakdown(plan, PLACEMENT)
    assert breakdown.step_time >= 0
    assert breakdown.step_time == pytest.approx(
        breakdown.per_gpu_total.max()
    )
    assert (breakdown.compute >= 0).all()
    assert (breakdown.all_to_all >= 0).all()
    assert (breakdown.sync >= 0).all()


@settings(max_examples=50, deadline=None)
@given(assignment=assignments(), scale=st.integers(2, 5))
def test_cost_monotone_in_token_scale(assignment, scale):
    """Scaling every token count up never reduces the modelled time."""
    plan_small = ROUTER.route(assignment, PLACEMENT)
    plan_large = ROUTER.route(assignment * scale, PLACEMENT)
    t_small = COST_MODEL.step_time(plan_small, PLACEMENT)
    t_large = COST_MODEL.step_time(plan_large, PLACEMENT)
    assert t_large >= t_small - 1e-12


@settings(max_examples=50, deadline=None)
@given(assignment=assignments())
def test_utilization_bounded(assignment):
    plan = ROUTER.route(assignment, PLACEMENT)
    breakdown = COST_MODEL.step_breakdown(plan, PLACEMENT)
    if breakdown.step_time > 0:
        utilization = (breakdown.compute / breakdown.step_time).mean()
        assert 0.0 <= utilization <= 1.0


@settings(max_examples=30, deadline=None)
@given(assignment=assignments())
def test_fractional_and_integer_costs_agree(assignment):
    """The relaxation used for candidate search tracks the integer cost."""
    integer = ROUTER.route(assignment, PLACEMENT)
    frac = ROUTER.route_fractional(assignment, PLACEMENT)
    t_int = COST_MODEL.step_time(integer, PLACEMENT)
    t_frac = COST_MODEL.step_time(frac, PLACEMENT)
    if t_int > 1e-9:
        assert t_frac == pytest.approx(t_int, rel=0.05)


@settings(max_examples=30, deadline=None)
@given(
    assignment=assignments(),
    expert=st.integers(0, 7),
)
def test_replication_never_hurts_compute_balance(assignment, expert):
    """Adding a replica of any expert cannot worsen even-split imbalance."""
    from repro.core.balance import balance_ratio, gpu_loads_even_split

    before = balance_ratio(gpu_loads_even_split(assignment, PLACEMENT))
    trial = PLACEMENT.copy()
    # free a slot from the least-loaded expert that can spare one
    loads = assignment.sum(axis=1)
    donors = [
        e for e in np.argsort(loads) if trial.replicas(int(e)) > 1
        and int(e) != expert
    ]
    if not donors:
        return
    donor = int(donors[0])
    gpu = trial.gpus_of(donor)[0]
    trial.remove_vexpert(donor, gpu)
    trial.add_vexpert(expert, gpu)
    # The *hottest* expert gaining a replica must improve or hold balance.
    if expert == int(np.argmax(loads)) and donor != expert:
        after = balance_ratio(gpu_loads_even_split(assignment, trial))
        # donor loss can shift load, so allow small tolerance
        assert after <= before * 1.5
