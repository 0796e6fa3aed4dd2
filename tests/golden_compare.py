"""Golden-report comparison shared by the tests that pin reports to files.

Key sets, ints, bools and strings must match exactly; floats match at
``rel=1e-9``, so a pin survives float-printing round trips but not a
moved number.
"""

import pytest


def assert_matches_golden(observed, golden, path="golden"):
    """Assert ``observed`` equals ``golden`` recursively; ``path`` names
    the first differing entry."""
    if isinstance(golden, dict):
        assert sorted(observed) == sorted(golden), path
        for key in golden:
            assert_matches_golden(observed[key], golden[key], f"{path}.{key}")
    elif isinstance(golden, list):
        assert len(observed) == len(golden), path
        for i, (a, b) in enumerate(zip(observed, golden)):
            assert_matches_golden(a, b, f"{path}[{i}]")
    elif isinstance(golden, float):
        assert observed == pytest.approx(golden, rel=1e-9), path
    else:
        assert type(observed) is type(golden) and observed == golden, path
