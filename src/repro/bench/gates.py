"""Named gates for the committed benchmark artifacts: ``python -m repro check``.

Every ``BENCH_*.json`` report names its ``suite``; :data:`SUITES` maps
that suite to an ordered table of ``(name, predicate)`` gates. A
predicate reads only the report JSON, never a live object, so a gate
holds identically when the suite builds its report and when ``python -m
repro check`` re-reads the committed file. A predicate that reaches for
a missing field fails instead of raising: key presence is part of every
gate.

Suite builders finish with :func:`seal`, which stores the verdicts as
``report["gates"]`` and their conjunction as ``report["ok"]``; a report
whose stored verdicts disagree with the table is :func:`stale`.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.exceptions import ConfigurationError

Gate = Callable[[Mapping], bool]
GateTable = tuple[tuple[str, Gate], ...]

#: The scale suite's engine must run (not skip) at every size up to this.
ENGINE_MUST_RUN_GPUS = 1024

#: Rows of the churn matrix (:func:`repro.bench.churn.churn_matrix_configs`).
CHURN_ROWS = ("spot", "outage", "heterogeneous", "multiday")


def _floor(section: Mapping) -> bool:
    return section["events_per_sec"] >= section["events_per_sec_floor"]


def _nested(key: str, table: GateTable) -> GateTable:
    """``table`` applied to ``report[<dotted key>]``, names prefixed by the
    key's last part."""
    parts = key.split(".")

    def reach(report: Mapping) -> Mapping:
        for part in parts:
            report = report[part]
        return report

    return tuple(
        (f"{parts[-1]}.{name}", lambda r, g=gate: g(reach(r)))
        for name, gate in table
    )


STEP_OVERHEAD: GateTable = (
    ("planner_decisions_match", lambda r: r["planner"]["decisions_match"]),
    ("kernel_results_match", lambda r: r["kernel"]["simulated_results_match"]),
    ("kernel_overhead_within_tolerance",
     lambda r: r["kernel"]["within_tolerance"]),
    ("zero_fallbacks", lambda r: (
        r["total_fallbacks"] == 0 and r["planner"]["fallbacks"] == 0
    )),
    ("memo_hits", lambda r: r["memo_hit_rate"] > 0),
    ("serving_events_floor", lambda r: _floor(r["serving_events"])),
    ("kernel_events_floor", lambda r: _floor(r["kernel_events"])),
    ("telemetry_results_match",
     lambda r: r["kernel"]["telemetry_results_match"]),
    ("telemetry_trace_events",
     lambda r: r["kernel"]["enabled_trace_events"] > 0),
    ("telemetry_timeline_events",
     lambda r: r["kernel"]["enabled_timeline_events"] > 0),
    ("telemetry_metrics_snapshot", lambda r: "metrics" in r["telemetry"]),
)

SCALE: GateTable = (
    ("zero_fallbacks", lambda r: r["total_fallbacks"] == 0 and all(
        size["planner"]["fallbacks"] == 0
        and size["engine"].get("fallbacks", 0) == 0
        for size in r["sizes"]
    )),
    ("hierarchical_wins_at_scale", lambda r: all(
        size["planner"]["speedup"] >= 1.0
        for size in r["sizes"]
        if size["num_gpus"] >= r["hier_must_win_gpus"]
    )),
    ("decision_quality", lambda r: all(
        size["planner"]["decisions_match"]
        or size["planner"]["quality_within_epsilon"]
        for size in r["sizes"]
    )),
    ("kernel_events_floor",
     lambda r: all(_floor(size["kernel_events"]) for size in r["sizes"])),
    ("engines_ran", lambda r: all(
        size["engine"]["steps_per_sec"] > 0
        if size["num_gpus"] <= ENGINE_MUST_RUN_GPUS
        else "skipped" in size["engine"] or size["engine"]["steps_per_sec"] > 0
        for size in r["sizes"]
    )),
)

SERVING_LATENCY: GateTable = (
    ("p99_beats_static", lambda r: (
        r["flexmoe"]["p99_latency_s"] < r["static"]["p99_latency_s"]
    )),
    ("goodput_beats_static", lambda r: (
        r["flexmoe"]["goodput_tokens_per_s"]
        > r["static"]["goodput_tokens_per_s"]
    )),
    ("ratios_reported", lambda r: "p99_speedup" in r and "goodput_gain" in r),
)

MULTITENANT_SERVING: GateTable = (
    ("interactive_beats_fifo", lambda r: (
        r["interactive_attainment"]["flexmoe"]
        > r["interactive_attainment"]["fifo"]
    )),
    ("fairness_floor", lambda r: r["jain_fairness"] >= r["fairness_floor"]),
    ("summaries_reported", lambda r: all(
        key in r for key in ("flexmoe", "fifo", "tenants", "attainment_gain")
    )),
)

COMPOSED_SCENARIO: GateTable = (
    ("requests_served", lambda r: r["serving"]["requests_served"] > 0),
    ("requests_accounted", lambda r: r["requests_unaccounted"] == 0),
    ("cluster_events_applied",
     lambda r: r["events_applied"] == 2 * r["scenario"]["num_failures"]),
    ("budget_granted", lambda r: r["budget_grants"] > 0),
    ("budget_committed", lambda r: (
        r["scenario"]["num_failures"] == 0
        or r["budget_committed_actions"] > 0
    )),
    # The engine's committed-action counter is the authoritative total:
    # budget-grant commits plus in-step serving commits must sum to it.
    ("actions_reconciled", lambda r: (
        r["engine_committed_actions"]
        == r["budget_committed_actions"] + r["serving"]["placement_actions"]
    )),
    ("experts_survive", lambda r: r["experts_survive"] is True),
)

_ARMS = ("fixed", "autoscaled")

#: One paired autoscaled-vs-fixed run (:func:`repro.sim.churn.churn_scenario_run`).
CHURN_PAIR: GateTable = (
    ("waves_applied",
     lambda r: r["fixed"]["waves_applied"] == r["scenario"]["num_waves"]),
    ("devices_revoked", lambda r: (
        r["fixed"]["devices_revoked"]
        == r["scenario"]["num_waves"] * r["scenario"]["wave_size"]
    )),
    ("requests_accounted",
     lambda r: all(r[arm]["requests_unaccounted"] == 0 for arm in _ARMS)),
    ("experts_survive",
     lambda r: all(r[arm]["experts_survive"] is True for arm in _ARMS)),
    ("autoscaler_scaled_up", lambda r: (
        r["scenario"]["standby_gpus"] == 0
        or r["autoscaled"]["autoscaler"]["scale_ups"] > 0
    )),
    ("notices_reacted", lambda r: (
        r["scenario"]["notice_fraction"] == 0
        or r["autoscaled"]["autoscaler"]["notices"] > 0
    )),
    ("device_seconds_billed",
     lambda r: all(r[arm]["device_seconds"] > 0 for arm in _ARMS)),
    ("autoscaled_beats_fixed", lambda r: r["attainment_gain"] > 0),
)


def _class_stat(arm: Mapping, cls: str, stat: str) -> float:
    return arm["serving"]["per_class"][cls][stat]


_SHED_ARMS = ("shed_off", "shed_on")

#: The shed-on vs shed-off pair (:func:`repro.bench.churn.degradation_run`).
DEGRADATION: GateTable = (
    # Capacity loss actually happened, identically, in both arms.
    ("loss_applied", lambda r: all(
        r[arm]["devices_revoked"] == r["scenario"]["lost_devices"]
        for arm in _SHED_ARMS
    )),
    # Served + rejected (shed folded in) covers the whole stream.
    ("accounting_conserved",
     lambda r: all(r[arm]["requests_unaccounted"] == 0 for arm in _SHED_ARMS)),
    # The mechanism engaged, and only ever against the batch class.
    ("shed_engaged", lambda r: r["shed_on"]["serving"]["shed_requests"] > 0),
    ("shed_spares_interactive",
     lambda r: _class_stat(r["shed_on"], "interactive", "requests_shed") == 0),
    # Graceful: interactive degrades strictly later than batch under the
    # same loss, and shedding never hurts the class it protects.
    ("interactive_degrades_later", lambda r: (
        _class_stat(r["shed_on"], "interactive", "slo_attainment")
        > _class_stat(r["shed_on"], "batch", "slo_attainment")
    )),
    ("shedding_protects_interactive", lambda r: (
        _class_stat(r["shed_on"], "interactive", "slo_attainment")
        >= _class_stat(r["shed_off"], "interactive", "slo_attainment")
    )),
)

AUTOSCALE_CHURN: GateTable = tuple(
    gate for row in CHURN_ROWS for gate in _nested(f"rows.{row}", CHURN_PAIR)
) + _nested("degradation", DEGRADATION)

#: Each artifact's ``suite`` -> its ordered gate table.
SUITES: dict[str, GateTable] = {
    "step_overhead": STEP_OVERHEAD,
    "scale": SCALE,
    "serving_latency": SERVING_LATENCY,
    "multitenant_serving": MULTITENANT_SERVING,
    "composed_scenario": COMPOSED_SCENARIO,
    "autoscale_churn": AUTOSCALE_CHURN,
    "churn_pair": CHURN_PAIR,
}


def run_gates(report: Mapping, table: GateTable) -> dict[str, bool]:
    """Each gate of ``table`` on ``report``, in table order."""
    verdicts = {}
    for name, gate in table:
        try:
            verdicts[name] = bool(gate(report))
        except (KeyError, IndexError, TypeError):
            verdicts[name] = False
    return verdicts


def evaluate(report: Mapping) -> dict[str, bool]:
    """Every gate of the report's suite; raises on an unknown suite."""
    suite = report.get("suite") if isinstance(report, Mapping) else None
    if suite not in SUITES:
        raise ConfigurationError(f"unknown benchmark suite {suite!r}")
    return run_gates(report, SUITES[suite])


def stale(report: Mapping, gates: Mapping[str, bool]) -> bool:
    """Whether the report's stored ``gates`` or ``ok`` disagree with the
    re-evaluated ``gates``: the artifact was sealed by another table."""
    return (
        report.get("gates") != dict(gates)
        or report.get("ok") != all(gates.values())
    )


def seal(report: dict, table: GateTable | None = None) -> dict:
    """Store the gate verdicts and ``ok`` on ``report``; returns it.

    ``table`` defaults to the report's suite table; the churn benchmark
    seals its pair rows and degradation section with their own tables.
    """
    gates = evaluate(report) if table is None else run_gates(report, table)
    report["gates"] = gates
    report["ok"] = all(gates.values())
    return report


__all__ = [
    "AUTOSCALE_CHURN",
    "CHURN_PAIR",
    "CHURN_ROWS",
    "COMPOSED_SCENARIO",
    "DEGRADATION",
    "ENGINE_MUST_RUN_GPUS",
    "MULTITENANT_SERVING",
    "SCALE",
    "SERVING_LATENCY",
    "STEP_OVERHEAD",
    "SUITES",
    "evaluate",
    "run_gates",
    "seal",
    "stale",
]
