"""Host time measured against a fixed reference kernel.

A shared host runs the same code at speeds that wander by half again
over tens of seconds, and the program's wall times wander with it. The
benchmark therefore runs a small fixed kernel, which uses nothing from
the program, at every step boundary of an untraced episode, and divides
each step's host time by the kernel's time around it. The result is the
step's cost in *reference units* (unit ``ref``): how many kernel passes
the host could have run in the same time. A faster program costs fewer
units; a host that slows down slows the kernel as much, so the units hold.

The kernel mixes what the program spends its time on: interpreted
arithmetic, method calls and dict lookups on small objects, and numpy
calls on short arrays. One pass takes about a millisecond.

Where a figure must be in seconds (``setup_s``), a reference unit counts as
``REF_UNIT_S``: the figure is then the time a host on which one pass takes
exactly a millisecond would show.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Seconds that one reference unit stands for in figures given in seconds.
REF_UNIT_S = 1e-3


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: int) -> None:
        self.a = a
        self.b = b

    def f(self, x: float) -> float:
        return self.a * x + self.b


_POINTS = [_Point(i * 0.5, i % 13) for i in range(200)]
_TABLE = {i: float(i) for i in range(200)}
_ARRAY = np.linspace(0.0, 1.0, 256)


def reference_kernel() -> float:
    """One pass of fixed work; the value only keeps it from being idle."""
    total = 0
    for i in range(6000):
        total += i * i % 7
    acc = float(total)
    for _ in range(6):
        for point in _POINTS:
            acc += point.f(1.0001) + _TABLE[point.b]
    for i in range(40):
        x = np.cumsum(_ARRAY * (i + 1))
        acc += float(np.where(x > 10.0, x, -x).dot(_ARRAY))
    return acc


def pass_seconds(repeats: int = 3) -> float:
    """Median host time of ``repeats`` kernel passes run back to back."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class RefClock:
    """Marks step boundaries, running one kernel pass at each when enabled.

    The timed window between the first and the last mark falls into
    *segments*, one between each pair of consecutive marks, that exclude
    the passes themselves. A segment's *scale* is the mean duration of the
    two passes around it, the host's speed right then. Disabled (on traced
    episodes), a mark only notes the time and no scale is defined.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.passes: list[tuple[float, float]] = []  # (start, end) of each mark

    def mark(self) -> None:
        start = time.perf_counter()
        if self.enabled:
            reference_kernel()
        self.passes.append((start, time.perf_counter()))

    def segments(self) -> list[float]:
        """Host seconds of each segment."""
        return [b[0] - a[1] for a, b in zip(self.passes, self.passes[1:])]

    def scales(self) -> list[float]:
        """Reference seconds (kernel time) of each segment."""
        spent = [end - start for start, end in self.passes]
        return [(a + b) / 2.0 for a, b in zip(spent, spent[1:])]
