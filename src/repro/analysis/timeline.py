"""ASCII timeline rendering: make a mediator run visible in a terminal.

The paper's Fig. 11 tells its story with power-versus-time plots. This
module renders the equivalent from a mediator's recorded
:class:`~repro.core.mediator.TickRecord` timeline without any plotting
dependency - examples and benchmark output stay self-contained text.

Two renderers:

* :func:`render_power_timeline` - a horizontal strip chart of wall power
  (and optionally per-app power) against time, with the cap line marked;
* :func:`render_series` - the generic single-series variant used for
  battery state of charge, throughput, or anything else sampled over time.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.errors import ConfigurationError

#: Glyphs from empty to full, used to quantize a sample into one cell.
_LEVELS = " .:-=+*#%@"

#: Cells in one strip.
STRIP_WIDTH = 72


def _sample(values: Sequence[float], buckets: int) -> list[float]:
    """Down-sample ``values`` to ``buckets`` means (the cells of the strip)."""
    if buckets >= len(values):
        return list(values)
    out = []
    for i in range(buckets):
        lo = i * len(values) // buckets
        hi = max(lo + 1, (i + 1) * len(values) // buckets)
        chunk = values[lo:hi]
        out.append(sum(chunk) / len(chunk))
    return out


def render_series(
    label: str,
    times_s: Sequence[float],
    values: Sequence[float],
    *,
    ceiling: float | None = None,
) -> str:
    """One labelled strip of :data:`STRIP_WIDTH` cells: each cell's glyph
    encodes the bucket mean.

    Args:
        label: Row label.
        times_s: Sample times (only the ends are printed).
        values: Samples, same length as ``times_s``.
        ceiling: Value mapped to the densest glyph; defaults to the max.

    Raises:
        ConfigurationError: on empty or mismatched inputs.
    """
    if not values or len(values) != len(times_s):
        raise ConfigurationError("need equal-length, non-empty times and values")
    top = ceiling if ceiling is not None else max(values)
    top = max(top, 1e-12)
    cells = _sample(list(values), STRIP_WIDTH)
    glyphs = "".join(
        _LEVELS[min(len(_LEVELS) - 1, int(round(v / top * (len(_LEVELS) - 1))))]
        for v in (max(0.0, c) for c in cells)
    )
    return (
        f"{label:>12s} |{glyphs}|  "
        f"[{times_s[0]:.0f}s..{times_s[-1]:.0f}s], peak {max(values):.1f}"
    )


def render_power_timeline(timeline: Sequence) -> str:
    """Strip chart of a mediator timeline: wall power, cap, and a row for
    every app that ever drew power.

    Args:
        timeline: ``TickRecord`` sequence (anything with ``time_s``,
            ``wall_w``, ``p_cap_w`` and ``app_power_w``).

    Raises:
        ConfigurationError: on an empty timeline.
    """
    records = list(timeline)
    if not records:
        raise ConfigurationError("timeline is empty")
    times = [r.time_s for r in records]
    cap = max(r.p_cap_w for r in records)
    lines = [
        render_series(
            "wall [W]",
            times,
            [r.wall_w for r in records],
            ceiling=cap,
        )
        + f"  (cap {cap:.0f} W)"
    ]
    seen: set[str] = set()
    for r in records:
        seen.update(r.app_power_w)
    for app in sorted(seen):
        series = [r.app_power_w.get(app, 0.0) for r in records]
        if any(series):
            lines.append(render_series(app, times, series))
    return "\n".join(lines)


def render_modes(timeline: Sequence) -> str:
    """One strip of at most :data:`STRIP_WIDTH` cells showing the
    coordination mode over time.

    Glyphs: ``S`` space, ``T`` time, ``E`` ESD, ``.`` idle.
    """
    records = list(timeline)
    if not records:
        raise ConfigurationError("timeline is empty")
    glyph_of = {"space": "S", "time": "T", "esd": "E", "idle": "."}
    modes = [glyph_of.get(r.mode.value, "?") for r in records]
    width = min(STRIP_WIDTH, len(modes))
    cells = [modes[i * len(modes) // width] for i in range(width)]
    return f"{'mode':>12s} |{''.join(cells)}|  (S space, T time, E esd, . idle)"
