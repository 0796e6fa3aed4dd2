"""Rendering helpers: paper-style tables and series.

Benchmarks print the same rows/series the paper reports so the
reproduction can be compared against the published numbers at a glance.
"""

from __future__ import annotations

from typing import Sequence

from repro.exceptions import ConfigurationError


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Plain-text aligned table."""
    if not headers:
        raise ConfigurationError("table needs at least one column")
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    for i, row in enumerate(str_rows):
        if len(row) != len(headers):
            raise ConfigurationError(
                f"row {i} has {len(row)} cells, expected {len(headers)}"
            )
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    name: str, xs: Sequence[object], ys: Sequence[object]
) -> str:
    """One labelled (x, y) series, e.g. a figure's line."""
    if len(xs) != len(ys):
        raise ConfigurationError("series xs and ys must have equal length")
    pairs = ", ".join(f"({_fmt(x)}, {_fmt(y)})" for x, y in zip(xs, ys))
    return f"{name}: {pairs}"


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)
