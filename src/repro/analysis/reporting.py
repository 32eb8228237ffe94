"""Plain-text tables and series for the benchmark harness.

The benchmarks must print "the same rows/series the paper reports"; these
helpers render them consistently (fixed-width columns, explicit headers) so
`bench_output.txt` is directly comparable with the paper's figures.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigurationError


#: Characters in one :func:`banner` line.
BANNER_WIDTH = 78


def banner(title: str) -> str:
    """A section banner for benchmark output."""
    pad = max(0, BANNER_WIDTH - len(title) - 2)
    left = pad // 2
    right = pad - left
    return f"{'=' * left} {title} {'=' * right}"


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    float_format: str = "{:.3f}",
) -> str:
    """Render a fixed-width table.

    Floats are formatted with ``float_format``; everything else with
    ``str``. Column widths fit the widest cell.

    Raises:
        ConfigurationError: when a row's length differs from the header's.
    """

    def render(cell: object) -> str:
        if isinstance(cell, float):
            return float_format.format(cell)
        return str(cell)

    rendered = [[render(c) for c in row] for row in rows]
    for row in rendered:
        if len(row) != len(headers):
            raise ConfigurationError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in rendered)) if rendered else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(str(h).ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rendered:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    name: str,
    xs: Sequence[object],
    ys: Sequence[float],
    *,
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render one figure series as labelled (x, y) pairs.

    Raises:
        ConfigurationError: on length mismatch.
    """
    if len(xs) != len(ys):
        raise ConfigurationError("xs and ys must align")
    pairs = "  ".join(
        f"({x}, {y:.4f})" if isinstance(y, float) else f"({x}, {y})"
        for x, y in zip(xs, ys)
    )
    return f"series {name} [{x_label} -> {y_label}]: {pairs}"
