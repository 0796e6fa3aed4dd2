"""Golden pin of the production router's integer routes.

``tests/data/router_golden.json`` holds, for small balanced, replicated
and packed placements, each case's assignment, placement and every
non-zero route as a COO entry ``(expert, src, dst, tokens)``.  The router
must reproduce every entry and capacity exactly: the sparse plan is an
exact re-expression of the dense floor-plus-northwest-corner arithmetic,
not an approximation of it.

Regenerate (only when routing is *meant* to move) with::

    PYTHONPATH=src python tests/test_router_golden.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import router as router_module
from repro.core.placement import Placement
from repro.core.router import FlexibleTokenRouter, validate_conservation

from routing_oracle import dense_routes

GOLDEN_PATH = Path(__file__).parent / "data" / "router_golden.json"


def _packed_counts() -> np.ndarray:
    """Hot experts packed several vExperts deep on a few GPUs."""
    counts = np.zeros((6, 8), dtype=np.int64)
    counts[0, [0, 5]] = [3, 2]
    counts[1, [1, 2, 3]] = 1
    counts[2, 4] = 2
    counts[3, [6, 7]] = 1
    counts[4, [0, 2, 4, 6]] = 1
    counts[5, [1, 3, 5, 7]] = 1
    return counts


def cases() -> dict[str, tuple[Placement, list[np.ndarray]]]:
    """Named ``(placement, assignments)`` cases, deterministic per name."""
    rng = np.random.default_rng(17)
    placements = {
        "balanced": Placement.balanced(8, 8, 1),
        "replicated": Placement.balanced(6, 8, 3),
        "packed": Placement(_packed_counts(), slots_per_gpu=4),
    }
    out = {}
    for name, placement in placements.items():
        shape = (placement.num_experts, placement.num_gpus)
        # Skewed demand (hot experts spill), then a sparse step with idle
        # experts and sources.
        skew = rng.zipf(1.6, size=shape[0]).clip(max=40)[:, None]
        dense = rng.integers(0, 400, shape) * skew
        sparse = rng.integers(0, 900, shape) * (rng.random(shape) < 0.3)
        out[name] = (placement, [dense, sparse])
    return out


def coo(routes: np.ndarray) -> list[list[int]]:
    """Every non-zero ``routes[e, src, dst]`` as ``[e, src, dst, tokens]``."""
    idx = np.argwhere(routes)
    return [[*map(int, cell), int(routes[tuple(cell)])] for cell in idx]


def record() -> dict[str, object]:
    router = FlexibleTokenRouter()
    out = {}
    for name, (placement, assignments) in cases().items():
        steps = []
        for assignment in assignments:
            plan = router.route(assignment, placement)
            steps.append({
                "assignment": assignment.tolist(),
                "capacities": plan.capacities.tolist(),
                "routes": coo(dense_routes(plan)),
            })
        out[name] = {
            "counts": placement.counts.tolist(),
            "slots_per_gpu": placement.slots_per_gpu,
            "steps": steps,
        }
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ["balanced", "replicated", "packed"])
def test_routes_match_golden(golden, name):
    case = golden[name]
    placement = Placement(np.array(case["counts"]), case["slots_per_gpu"])
    router = FlexibleTokenRouter()
    for step in case["steps"]:
        assignment = np.array(step["assignment"])
        plan = router.route(assignment, placement)
        validate_conservation(assignment, plan)
        assert plan.capacities.tolist() == step["capacities"]
        assert coo(dense_routes(plan)) == step["routes"]
        # The plan's own sparse form carries exactly those routes.
        local = np.zeros_like(plan.local)
        spill = []
        for expert, src, dst, tokens in step["routes"]:
            if src == dst:
                local[expert, src] = tokens
            else:
                spill.append([expert, src, dst, tokens])
        np.testing.assert_array_equal(plan.local, local)
        assert sorted(map(list, zip(*(a.tolist() for a in plan.spill)))) == spill


def test_expert_batches_reproduce_one_pass(golden, monkeypatch):
    # One spilling expert per batch must price exactly the same routes.
    monkeypatch.setattr(router_module, "SPILL_CHUNK_CELLS", 1)
    for name in ("replicated", "packed"):
        test_routes_match_golden(golden, name)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(record(), indent=1) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN_PATH}")
