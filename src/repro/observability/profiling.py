"""Per-phase wall-clock timers for the mediator's control loop.

A :class:`PhaseProfiler` accumulates elapsed wall-clock time per named phase
(learn, allocate, coordinate, actuate, engine, ...) via a context manager
that costs two ``perf_counter`` calls — cheap enough to leave on always.

Timings are *execution* facts, not simulation facts: they vary run to run
on the same seed. They therefore live only in the metrics JSON and must
never be emitted on the trace bus, or the trace hash would stop being
deterministic.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = ["PhaseProfiler"]

#: Samples retained per phase for the p95 estimate. Sliding window rather
#: than full history: phases fire once per tick, and a multi-hour service
#: run must not grow profiler state without bound.
_P95_WINDOW = 512


class _PhaseStat:
    __slots__ = ("calls", "total_s", "max_s", "window")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.max_s = 0.0
        self.window: deque[float] = deque(maxlen=_P95_WINDOW)

    def add(self, elapsed_s: float) -> None:
        self.calls += 1
        self.total_s += elapsed_s
        if elapsed_s > self.max_s:
            self.max_s = elapsed_s
        self.window.append(elapsed_s)

    def p95_s(self) -> float:
        """Nearest-rank p95 over the retained window (0.0 when empty)."""
        if not self.window:
            return 0.0
        ordered = sorted(self.window)
        rank = max(int(0.95 * len(ordered) + 0.5), 1)
        return ordered[min(rank, len(ordered)) - 1]


class PhaseProfiler:
    """Accumulates wall-clock time per named phase of the control loop."""

    def __init__(self) -> None:
        self._phases: dict[str, _PhaseStat] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        stat = self._phases.get(name)
        if stat is None:
            stat = self._phases[name] = _PhaseStat()
        start = time.perf_counter()
        try:
            yield
        finally:
            stat.add(time.perf_counter() - start)

    def report(self) -> dict[str, dict[str, Any]]:
        """Per-phase call counts, totals and tail latency, sorted by
        cumulative time. ``p95_s`` is nearest-rank over the most recent
        ``_P95_WINDOW`` samples of that phase."""
        ordered = sorted(self._phases.items(), key=lambda item: -item[1].total_s)
        return {
            name: {
                "calls": stat.calls,
                "total_s": stat.total_s,
                "mean_s": stat.total_s / stat.calls if stat.calls else 0.0,
                "max_s": stat.max_s,
                "p95_s": stat.p95_s(),
            }
            for name, stat in ordered
        }
