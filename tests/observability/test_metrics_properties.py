"""Hypothesis: the metrics primitives keep their algebraic contracts for
arbitrary observation streams - counters stay monotone, quantiles stay
inside the observed range, and merging two registries is observationally
equal to replaying both streams into one."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.observability.metrics import Histogram, MetricsRegistry

finite = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)
observations = st.lists(finite, max_size=64)
# Merge equality is exact only when addition is: integer-valued floats keep
# every partial sum representable, so reordering cannot shift an ulp.
exact_observations = st.lists(
    st.integers(min_value=-(10**6), max_value=10**6).map(float), max_size=64
)
deltas = st.lists(st.floats(min_value=0.0, max_value=1e9, allow_nan=False), max_size=32)
quantile_points = st.floats(min_value=0.0, max_value=1.0)
small_windows = st.integers(min_value=1, max_value=8)


class TestCounterProperties:
    @given(increments=deltas)
    @settings(max_examples=80, deadline=None)
    def test_counter_is_monotone_over_any_stream(self, increments):
        counter = MetricsRegistry().counter("c")
        seen = [counter.value]
        for delta in increments:
            counter.inc(delta)
            seen.append(counter.value)
        assert all(b >= a for a, b in zip(seen, seen[1:]))
        assert counter.value == sum(increments)


class TestHistogramProperties:
    @given(values=st.lists(finite, min_size=1, max_size=64), q=quantile_points)
    @settings(max_examples=120, deadline=None)
    def test_quantile_bounded_by_window_min_max(self, values, q):
        hist = Histogram("h")
        for value in values:
            hist.observe(value)
        quantile = hist.quantile(q)
        assert min(hist.window) <= quantile <= max(hist.window)
        # ...which the cumulative extrema bound in turn.
        assert hist.minimum <= quantile <= hist.maximum

    @given(values=st.lists(finite, min_size=1, max_size=64), window=small_windows)
    @settings(max_examples=80, deadline=None)
    def test_quantiles_are_observed_values(self, values, window):
        hist = Histogram("h", window_size=window)
        for value in values:
            hist.observe(value)
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert hist.quantile(q) in values

    @given(values=observations)
    @settings(max_examples=80, deadline=None)
    def test_cumulative_stats_exact_regardless_of_eviction(self, values):
        hist = Histogram("h", window_size=4)
        for value in values:
            hist.observe(value)
        assert hist.count == len(values)
        if values:
            assert hist.minimum == min(values)
            assert hist.maximum == max(values)
            assert abs(hist.total - sum(values)) <= 1e-6 * max(1.0, abs(sum(values)))


class TestMergeProperties:
    @given(first=exact_observations, second=exact_observations)
    @settings(max_examples=100, deadline=None)
    def test_merge_equals_concatenated_replay(self, first, second):
        a, b = MetricsRegistry(), MetricsRegistry()
        for value in first:
            a.histogram("h").observe(value)
        for value in second:
            b.histogram("h").observe(value)
        a.counter("c").inc(len(first))
        b.counter("c").inc(len(second))
        replayed = MetricsRegistry()
        for value in first + second:
            replayed.histogram("h").observe(value)
        replayed.counter("c").inc(len(first) + len(second))
        assert a.merge(b).to_json() == replayed.to_json()

    @given(first=exact_observations, second=exact_observations, third=exact_observations)
    @settings(max_examples=60, deadline=None)
    def test_merge_is_associative(self, first, second, third):
        def registry(values):
            r = MetricsRegistry()
            for value in values:
                r.histogram("h").observe(value)
            return r

        a, b, c = registry(first), registry(second), registry(third)
        left = a.merge(b).merge(registry(third))
        right = registry(first).merge(b.merge(c))
        assert left.to_json() == right.to_json()

    @given(values=exact_observations)
    @settings(max_examples=40, deadline=None)
    def test_merge_with_empty_is_identity(self, values):
        a = MetricsRegistry()
        for value in values:
            a.histogram("h").observe(value)
        a.counter("c").inc(len(values))
        a.gauge("g").set(1.5)
        empty = MetricsRegistry()
        assert a.merge(empty).to_json() == a.to_json()
        assert empty.merge(a).to_json() == a.to_json()
