"""Plain-text rendering of experiment results: tables and bar charts.

Every experiment renders its paper table/figure as text, so results are
inspectable straight from ``python -m repro <id>`` output or the example
scripts without any plotting dependency.
"""

from __future__ import annotations

from typing import Sequence


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str | None = None
) -> str:
    """Render an aligned ASCII table."""
    if not headers:
        raise ValueError("table needs headers")
    str_rows = [[_cell(v) for v in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row width {len(row)} does not match {len(headers)} headers"
            )
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    header_line = " | ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    title: str | None = None,
    width: int = 50,
    unit: str = "",
) -> str:
    """Render a horizontal ASCII bar chart (one bar per label)."""
    if len(labels) != len(values):
        raise ValueError("labels and values must have equal length")
    if not labels:
        raise ValueError("chart needs at least one bar")
    if any(v < 0 for v in values):
        raise ValueError("bar values must be non-negative")
    peak = max(values) or 1.0
    label_w = max(len(label) for label in labels)
    lines = [title] if title else []
    for label, value in zip(labels, values):
        bar = "#" * max(1 if value > 0 else 0, round(width * value / peak))
        lines.append(f"{label.ljust(label_w)} | {bar} {_cell(value)}{unit}")
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)
