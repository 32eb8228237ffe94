"""Spans around the benchmark's calls into the program, kept in memory.

The benchmark times each layer from outside: every call it makes into a
layer's public entry point goes through :meth:`Tracer.call`, which, when
tracing is on, records a span (name, start, end, parent, run id). A
layer's *self time* is its spans' duration minus the part covered by
their child spans, so the self times of every span name, the root
``bench.episode`` span included, add up to the traced wall time exactly;
the root's own self time is the harness time no layer accounts for.

With tracing off, :meth:`Tracer.call` is a plain call, so untraced runs
measure the program and not the recorder.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

ROOT_SPAN = "bench.episode"


class Tracer:
    """Records spans when ``enabled``; otherwise calls straight through.

    Each span is ``[run_id, name, start_s, end_s, parent_index]`` with
    ``parent_index`` -1 for a root. ``last`` is the index of the most
    recently closed span, so a caller can relabel it once it knows what
    the call turned out to be (a service tick that admitted a job).
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[list[Any]] = []
        self.run_id = 0
        self.last = -1
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        if not self.enabled:
            return fn(*args, **kwargs)
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    @contextmanager
    def episode(self, run_id: int) -> Iterator[None]:
        """The root span of one timed episode."""
        self.run_id = run_id
        if not self.enabled:
            yield
            return
        index = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(index)

    def add(self, name: str, start_s: float, end_s: float, parent: int) -> None:
        """Record a span measured by other means (inside ``parent``)."""
        if self.enabled:
            self.spans.append([self.run_id, name, start_s, end_s, parent])

    def relabel(self, index: int, name: str) -> None:
        if self.enabled:
            self.spans[index][1] = name

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.run_id, name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()
        self.last = index

    def self_times(self, run_ids: set[int]) -> dict[str, float]:
        """Summed self time per span name over the given runs."""
        covered = [0.0] * len(self.spans)
        for run_id, _, start, end, parent in self.spans:
            if parent >= 0 and run_id in run_ids:
                covered[parent] += end - start
        totals: dict[str, float] = {}
        for index, (run_id, name, start, end, _) in enumerate(self.spans):
            if run_id in run_ids:
                totals[name] = totals.get(name, 0.0) + (end - start) - covered[index]
        return totals

    def wall(self, run_ids: set[int]) -> float:
        """Summed duration of the root spans of the given runs."""
        return sum(
            end - start
            for run_id, _, start, end, parent in self.spans
            if parent < 0 and run_id in run_ids
        )

    def calls(self, run_ids: set[int]) -> dict[str, int]:
        counts: dict[str, int] = {}
        for run_id, name, *_ in self.spans:
            if run_id in run_ids:
                counts[name] = counts.get(name, 0) + 1
        return counts

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for run_id, name, start, end, parent in self.spans:
                handle.write(
                    json.dumps(
                        {"run": run_id, "name": name, "start_s": start,
                         "end_s": end, "parent": parent}
                    )
                    + "\n"
                )


class GcClock:
    """Time spent in the cyclic garbage collector, from ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._started: float | None = None

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.seconds += time.perf_counter() - self._started
            self.collections += 1
            self._started = None
