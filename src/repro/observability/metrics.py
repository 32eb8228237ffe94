"""Counters, gauges, and windowed histograms behind a mergeable registry.

Replaces the ad-hoc integer counters that grew inside ``core/resilience.py``
and the chaos harness with three small primitives:

* :class:`Counter` — monotone; ``inc`` rejects negative deltas, so a counter
  read is always a lower bound on events seen.
* :class:`Gauge` — last-write-wins scalar (state of charge, tick count).
* :class:`Histogram` — a bounded observation window for quantiles plus
  *cumulative* count/sum/min/max, so long runs keep exact totals while the
  window stays O(1) memory.

Registries serialise to JSON (:meth:`MetricsRegistry.to_json`) for the
``BENCH_*.json`` trajectory and merge associatively: merging two registries
is observationally equal to replaying both observation streams into one —
the property the hypothesis suite pins.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any

from repro.errors import ObservabilityError
from repro.schema import Validator
from repro.util.folds import _seq_add_final

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "METRICS_SCHEMA_VERSION"]

METRICS_SCHEMA_VERSION = 1

_VALIDATE = Validator(error=ObservabilityError)

_DEFAULT_WINDOW = 512
_QUANTILES = (0.5, 0.9, 0.99)


class Counter:
    """A monotonically non-decreasing count."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str, value: float = 0) -> None:
        self.name = name
        self._value = value

    @property
    def value(self) -> float:
        return self._value

    def inc(self, delta: float = 1) -> None:
        if delta < 0:
            raise ObservabilityError(
                f"counter {self.name!r}: negative increment {delta} (counters are monotone)"
            )
        self._value += delta

    def reset(self, value: float = 0) -> None:
        """Set the count outright - only for checkpoint-restore paths, which
        may legitimately rewind a counter; live code must use :meth:`inc`."""
        self._value = value


class Gauge:
    """A last-write-wins scalar; ``value`` is ``None`` until first set."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str, value: float | None = None) -> None:
        self.name = name
        self._value = value

    @property
    def value(self) -> float | None:
        return self._value

    def set(self, value: float) -> None:
        self._value = float(value)


class Histogram:
    """Cumulative stats plus a bounded window of recent observations.

    Quantiles use the nearest-rank method over the window, so they are
    always actual observed values (and therefore bounded by the window's
    min/max, which the cumulative min/max in turn bound).
    """

    __slots__ = ("name", "window_size", "_window", "count", "total", "minimum", "maximum")

    def __init__(self, name: str, window_size: int = _DEFAULT_WINDOW) -> None:
        if window_size < 1:
            raise ObservabilityError(f"histogram {name!r}: window_size must be >= 1")
        self.name = name
        self.window_size = int(window_size)
        self._window: deque[float] = deque(maxlen=self.window_size)
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    @property
    def window(self) -> list[float]:
        return list(self._window)

    def observe(self, value: float) -> None:
        value = float(value)
        self._window.append(value)
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def observe_repeated(self, value: float, k: int) -> None:
        """What ``k`` :meth:`observe` calls with ``value`` leave."""
        value = float(value)
        self._window.extend([value] * k)  # deque(maxlen=...) keeps the tail
        self.count += k
        self.total = _seq_add_final(self.total, value, k)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def quantile(self, q: float) -> float | None:
        """Nearest-rank quantile over the window; ``None`` when empty."""
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"histogram {self.name!r}: quantile {q} outside [0, 1]")
        if not self._window:
            return None
        ordered = sorted(self._window)
        rank = max(1, math.ceil(q * len(ordered)))
        return ordered[rank - 1]

    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None

    def snapshot(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            "mean": self.mean,
            "window_size": self.window_size,
            "window": self.window,
        }
        for q in _QUANTILES:
            doc[f"p{int(q * 100)}"] = self.quantile(q)
        return doc


class MetricsRegistry:
    """A namespace of metrics, created on first touch and exportable to JSON."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        return histogram

    def counters(self) -> dict[str, float]:
        return {name: c.value for name, c in sorted(self._counters.items())}

    def gauges(self) -> dict[str, float | None]:
        return {name: g.value for name, g in sorted(self._gauges.items())}

    def to_json(self) -> dict[str, Any]:
        return {
            "schema": METRICS_SCHEMA_VERSION,
            "counters": self.counters(),
            "gauges": self.gauges(),
            "histograms": {
                name: h.snapshot() for name, h in sorted(self._histograms.items())
            },
        }

    @classmethod
    def from_json(cls, doc: Any) -> "MetricsRegistry":
        path = "metrics"  # the JSON-path prefix of every error message
        data = _VALIDATE.as_dict(doc, path)
        schema = data.get("schema")
        if schema != METRICS_SCHEMA_VERSION:
            _VALIDATE.fail(f"{path}.schema", f"unsupported version {schema!r}")
        registry = cls()
        for name, value in _VALIDATE.as_dict(data.get("counters", {}), f"{path}.counters").items():
            registry._counters[name] = Counter(
                name, _VALIDATE.as_number(value, f"{path}.counters.{name}")
            )
        for name, value in _VALIDATE.as_dict(data.get("gauges", {}), f"{path}.gauges").items():
            gauge = Gauge(name)
            if value is not None:
                gauge.set(_VALIDATE.as_number(value, f"{path}.gauges.{name}"))
            registry._gauges[name] = gauge
        raw_hists = _VALIDATE.as_dict(data.get("histograms", {}), f"{path}.histograms")
        for name, snap in raw_hists.items():
            snap = _VALIDATE.as_dict(snap, f"{path}.histograms.{name}")
            hist = Histogram(
                name,
                window_size=_VALIDATE.as_int(
                    snap.get("window_size", _DEFAULT_WINDOW), f"{path}.histograms.{name}.window_size"
                ),
            )
            window = _VALIDATE.as_list(snap.get("window", []), f"{path}.histograms.{name}.window")
            for i, value in enumerate(window):
                hist._window.append(
                    _VALIDATE.as_number(value, f"{path}.histograms.{name}.window[{i}]")
                )
            hist.count = _VALIDATE.as_int(snap.get("count", 0), f"{path}.histograms.{name}.count")
            hist.total = _VALIDATE.as_number(
                snap.get("sum", 0.0), f"{path}.histograms.{name}.sum"
            )
            raw_min = snap.get("min")
            raw_max = snap.get("max")
            hist.minimum = (
                math.inf
                if raw_min is None
                else _VALIDATE.as_number(raw_min, f"{path}.histograms.{name}.min")
            )
            hist.maximum = (
                -math.inf
                if raw_max is None
                else _VALIDATE.as_number(raw_max, f"{path}.histograms.{name}.max")
            )
            registry._histograms[name] = hist
        return registry

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """A new registry equal to replaying both observation streams in order.

        Counters add; gauges take the other registry's value when it was
        ever set (last write wins); histogram windows concatenate (other's
        observations are newer) and cumulative stats combine exactly.
        """
        merged = MetricsRegistry()
        for name in {**self._counters, **other._counters}:
            total = 0.0
            if name in self._counters:
                total += self._counters[name].value
            if name in other._counters:
                total += other._counters[name].value
            merged._counters[name] = Counter(name, total)
        for name in {**self._gauges, **other._gauges}:
            theirs = other._gauges.get(name)
            mine = self._gauges.get(name)
            winner = theirs if theirs is not None and theirs.value is not None else mine
            merged._gauges[name] = Gauge(name, winner.value if winner is not None else None)
        for name in {**self._histograms, **other._histograms}:
            mine_h = self._histograms.get(name)
            theirs_h = other._histograms.get(name)
            window_size = (theirs_h or mine_h).window_size  # type: ignore[union-attr]
            hist = Histogram(name, window_size=window_size)
            for source in (mine_h, theirs_h):
                if source is None:
                    continue
                hist._window.extend(source._window)
                hist.count += source.count
                hist.total += source.total
                hist.minimum = min(hist.minimum, source.minimum)
                hist.maximum = max(hist.maximum, source.maximum)
            merged._histograms[name] = hist
        return merged
