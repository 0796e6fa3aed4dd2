"""Figure 6c: cost-model estimation accuracy.

The paper validates its profiling-based cost models by comparing estimated
vs real cost for computation / All-to-All / AllReduce across input sizes,
reporting an average prediction error below 3%.

We do the same: the estimates come from a *noisy profile* (what FlexMoE's
Policy Maker sees); the "real" costs come from the ground-truth executor
with jitter (what the simulated hardware actually does).
"""

import numpy as np
from conftest import run_once

from repro.bench.reporting import format_table
from repro.baselines.base import build_context
from repro.bench.harness import cluster_for
from repro.core.cost_model import MoECostModel
from repro.model.zoo import get_model_config


def run_fig6c():
    model = get_model_config("GPT-MoE-S")
    context = build_context(cluster_for(16), model, seed=5)
    cost_model = MoECostModel(context.profile, model)
    executor = context.executor
    rng = np.random.default_rng(0)

    rows = []
    errors = []

    # --- computation across input sizes ------------------------------
    for tokens in (1_000, 10_000, 100_000, 1_000_000):
        est = cost_model.compute_time(tokens, 3)
        real = np.mean([executor.real_compute_time(tokens, 3) for _ in range(5)])
        err = abs(est - real) / real
        errors.append(err)
        rows.append(["compute", f"{tokens}", f"{est*1e3:.3f}", f"{real*1e3:.3f}",
                     f"{100*err:.1f}%"])

    # --- All-to-All across message sizes ------------------------------
    for tokens in (10_000, 100_000, 1_000_000):
        routes = np.zeros((model.num_experts, 16, 16))
        for g in range(16):
            routes[rng.integers(0, model.num_experts), g, (g + 5) % 16] = tokens / 16
        flow = routes.sum(axis=0)
        # Eq. 8 as the cost model prices it: its passes over the profiled
        # fabric's receive times.
        est = cost_model.a2a_passes * (
            context.profile.bandwidth_model()
            .receive_times(flow, model.token_bytes)
            .max()
        )
        real = 4 * np.mean(
            [executor.real_a2a_pass_time(flow) for _ in range(5)]
        )
        err = abs(est - real) / real
        errors.append(err)
        rows.append(["all-to-all", f"{tokens}", f"{est*1e3:.3f}",
                     f"{real*1e3:.3f}", f"{100*err:.1f}%"])

    # --- AllReduce across group sizes ---------------------------------
    for group in ((0, 1), (0, 1, 2, 3), tuple(range(8)), tuple(range(16))):
        est = model.expert_bytes / context.profile.allreduce_bps(group)
        real = np.mean(
            [
                executor.real_allreduce_time(model.expert_bytes, group)
                for _ in range(5)
            ]
        )
        err = abs(est - real) / real
        errors.append(err)
        rows.append(["allreduce", f"group={len(group)}", f"{est*1e3:.3f}",
                     f"{real*1e3:.3f}", f"{100*err:.1f}%"])

    table = format_table(
        ["operation", "input", "estimated(ms)", "real(ms)", "error"],
        rows,
        title="Figure 6c: cost-model estimation vs real cost",
    )
    mean_error = float(np.mean(errors))
    return table, mean_error


def test_fig6c_cost_model_accuracy(benchmark, report):
    table, mean_error = run_once(benchmark, run_fig6c)
    report(
        "fig6c_cost_model",
        table + f"\n\nmean error: {100*mean_error:.2f}% (paper: < 3%)",
    )
    assert mean_error < 0.05
