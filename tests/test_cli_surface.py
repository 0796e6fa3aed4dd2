"""The ``python -m repro`` surface, pinned flag by flag.

Every subcommand's options, as ``option -> (default, choices, nargs,
store_true)``. A renamed or removed flag, a changed default or a lost
``choices`` list fails here; a deliberate surface change edits this
table in the same change.
"""

import argparse

from repro.bench.gates import SUITES
from repro.cli import REPORTS, build_parser

_VALUE, _FLAG = (None, None, False), (None, 0, True)

SURFACE = {
    "run": {
        "--layers": (4, *_VALUE),
        "--experts": (32, *_VALUE),
        "--gpus": (16, *_VALUE),
        "--steps": (30, *_VALUE),
        "--tokens-per-gpu": (32768, *_VALUE),
        "--d-model": (2048, *_VALUE),
        "--d-ffn": (8192, *_VALUE),
        "--warmup": (5, *_VALUE),
        "--seed": (0, *_VALUE),
        "--no-overlap": (False, *_FLAG),
        "--no-dense": (False, *_FLAG),
        "--json": (False, *_FLAG),
        "--trace-out": (None, *_VALUE),
        "--telemetry": (False, *_FLAG),
    },
    "bench": {
        "--experts": (64, *_VALUE),
        "--gpus": (16, *_VALUE),
        "--repeats": (30, *_VALUE),
        "--seed": (0, *_VALUE),
        "--smoke": (False, *_FLAG),
        "--json": (False, *_FLAG),
    },
    "compare": {
        "--model": (None, *_VALUE),
        "--experts": (16, *_VALUE),
        "--gpus": (8, *_VALUE),
        "--steps": (40, *_VALUE),
        "--seed": (0, *_VALUE),
        "--json": (False, *_FLAG),
    },
    "faults": {
        "--layers": (2, *_VALUE),
        "--experts": (16, *_VALUE),
        "--gpus": (8, *_VALUE),
        "--steps": (50, *_VALUE),
        "--tokens-per-gpu": (16384, *_VALUE),
        "--warmup": (5, *_VALUE),
        "--failures": (1, *_VALUE),
        "--fail-step": (None, *_VALUE),
        "--recover-after": (None, *_VALUE),
        "--stragglers": (1, *_VALUE),
        "--straggler-factor": (0.5, *_VALUE),
        "--straggler-step": (None, *_VALUE),
        "--slow-gpus": (0, *_VALUE),
        "--slow-factor": (0.6, *_VALUE),
        "--spike-period": (None, *_VALUE),
        "--seed": (0, *_VALUE),
        "--smoke": (False, *_FLAG),
        "--json": (False, *_FLAG),
    },
    "perf": {
        "--smoke": (False, *_FLAG),
        "--seed": (0, *_VALUE),
        "--output": ("BENCH_step_overhead.json", *_VALUE),
        "--json": (False, *_FLAG),
    },
    "scale": {
        "--smoke": (False, *_FLAG),
        "--seed": (0, *_VALUE),
        "--output": ("BENCH_scale.json", *_VALUE),
        "--json": (False, *_FLAG),
    },
    "serve": {
        "--layers": (2, *_VALUE),
        "--experts": (16, *_VALUE),
        "--gpus": (8, *_VALUE),
        "--requests": (400, *_VALUE),
        "--mean-tokens": (512, *_VALUE),
        "--batch-tokens": (4096, *_VALUE),
        "--arrival": ("bursty", ("poisson", "bursty", "diurnal"), None, False),
        "--load": (0.9, *_VALUE),
        "--skew": (2.0, *_VALUE),
        "--topics": (4, *_VALUE),
        "--topic-drift": (0.4, *_VALUE),
        "--slo-batches": (8.0, *_VALUE),
        "--failures": (0, *_VALUE),
        "--fail-batch": (None, *_VALUE),
        "--recover-after": (None, *_VALUE),
        "--seed": (0, *_VALUE),
        "--multi-tenant": (False, *_FLAG),
        "--smoke": (False, *_FLAG),
        "--output": (None, *_VALUE),
        "--json": (False, *_FLAG),
        "--trace-out": (None, *_VALUE),
        "--telemetry": (False, *_FLAG),
    },
    "scenario": {
        "--layers": (2, *_VALUE),
        "--experts": (16, *_VALUE),
        "--gpus": (8, *_VALUE),
        "--requests": (400, *_VALUE),
        "--load": (0.85, *_VALUE),
        "--failures": (1, *_VALUE),
        "--budget-bandwidth": (0.5, *_VALUE),
        "--seed": (0, *_VALUE),
        "--smoke": (False, *_FLAG),
        "--output": ("BENCH_composed_scenario.json", *_VALUE),
        "--json": (False, *_FLAG),
        "--trace-out": (None, *_VALUE),
        "--telemetry": (False, *_FLAG),
    },
    "churn": {
        "--seed": (0, *_VALUE),
        "--smoke": (False, *_FLAG),
        "--output": ("BENCH_autoscale_churn.json", *_VALUE),
        "--json": (False, *_FLAG),
        "--trace-out": (None, *_VALUE),
        "--telemetry": (False, *_FLAG),
    },
    "trace": {
        "--layers": (2, *_VALUE),
        "--experts": (16, *_VALUE),
        "--gpus": (8, *_VALUE),
        "--requests": (400, *_VALUE),
        "--load": (0.85, *_VALUE),
        "--failures": (1, *_VALUE),
        "--seed": (0, *_VALUE),
        "--smoke": (False, *_FLAG),
        "--output": ("trace.json", *_VALUE),
        "--json": (False, *_FLAG),
    },
    "check": {
        "files": (None, None, "+", False),
    },
}


def _surface(parser: argparse.ArgumentParser) -> dict[str, dict]:
    subparsers = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    surface = {}
    for command, sub in subparsers.choices.items():
        options = {}
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            for name in action.option_strings or [action.dest]:
                options[name] = (
                    action.default,
                    None if action.choices is None else tuple(action.choices),
                    action.nargs,
                    isinstance(action, argparse._StoreTrueAction),
                )
        surface[command] = options
    return surface


def test_every_subcommand_flag_is_pinned():
    surface = _surface(build_parser())
    assert list(surface) == list(SURFACE)
    for command, options in SURFACE.items():
        assert surface[command] == options, command



def test_report_records_are_keyed_by_gate_suite():
    """Each report record carries its gate suite's name; ``trace`` alone
    re-runs another suite (the composed scenario) for its trace."""
    assert set(REPORTS) - {"trace"} <= set(SUITES)
