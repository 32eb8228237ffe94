"""Closed-form k-tick folds for the fast path (DESIGN.md §13).

A steady tick changes each component's state by a constant step: ``s +=
c``, ``s *= c`` or ``s = (s + c) % wrap``. These kernels apply ``k`` such
steps in plain Python floats. ``itertools.accumulate`` and
``functools.reduce`` over ``operator.add`` and ``operator.mul`` apply the
scalar operation left to right, one IEEE operation per tick, so they equal
the scalar loop bit for bit by construction (``tests/engine/test_planner.py``
pins each against the literal loop). The builtin ``sum`` is never used:
from CPython 3.12 it compensates float sums and so is not the fold.

This module imports nothing from ``repro``: the components whose folds sit
next to their scalar methods (battery, RAPL, heartbeats, histograms, ...)
all use it.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate, repeat
from operator import add, mul

#: Stop this many ticks before any predicted branch point; the scalar
#: path then walks through the edge itself.
HORIZON_MARGIN = 2


def _seq_add(start: float, step: float, k: int) -> list[float]:
    """The fl-sequential fold ``start, start+step, ...`` (length ``k+1``).

    ``out[i]`` is exactly the float the scalar loop holds after ``i``
    repetitions of ``s += step``.
    """
    return list(accumulate(repeat(step, k), add, initial=start))


def _seq_add_final(start: float, step: float, k: int) -> float:
    """Final value of ``k`` sequential ``s += step`` folds."""
    return reduce(add, repeat(step, k), start)


def _seq_mul_final(start: float, factor: float, k: int) -> float:
    """Final value of ``k`` sequential ``s *= factor`` folds."""
    return reduce(mul, repeat(factor, k), start)


def _rapl_march(e0: float, step_j: float, wrap_j: float, k: int) -> list[float]:
    """Per-tick counter values of ``k`` folds of ``e = (e + step) % wrap``."""
    values = []
    e = e0
    for _ in range(k):
        e = (e + step_j) % wrap_j
        values.append(e)
    return values


def _clean_work_ticks(total: float, done: float, work: float, k: int) -> int:
    """How many of the next ``k`` ticks run ``done += work`` as they stand.

    ``SimulatedServer.tick`` clips a tick's work to ``max(0.0, total -
    done)`` and completes the job once that reaches zero; the count stops
    before the first tick that does either, so the scalar path walks it.
    The completion test alone finds that tick: rounding is monotone, so
    ``total - done < work`` means ``done + work`` rounds to ``total`` or
    more, and a tick that would clip also leaves nothing to do.
    """
    for i in range(k):
        done += work
        if max(0.0, total - done) <= 0.0:
            return i
    return k
