"""Performance model: bottleneck structure, monotonicity, normalization."""

import pytest

from repro.errors import ConfigurationError
from repro.server.config import KnobSetting
from repro.workloads.profiles import WorkloadProfile


def knob(f=2.0, n=6, m=10.0):
    return KnobSetting(f, n, m)


class TestComputeRate:
    def test_scales_with_amdahl(self, perf_model, kmeans):
        one = perf_model.compute_rate(kmeans, knob(n=1))
        six = perf_model.compute_rate(kmeans, knob(n=6))
        assert six == pytest.approx(one * kmeans.amdahl_speedup(6))

    def test_scales_with_frequency_sensitivity(self, perf_model, kmeans):
        slow = perf_model.compute_rate(kmeans, knob(f=1.2))
        fast = perf_model.compute_rate(kmeans, knob(f=2.0))
        assert fast / slow == pytest.approx((2.0 / 1.2) ** kmeans.dvfs_sensitivity)

    def test_base_rate_is_the_scale(self, perf_model, config):
        a = WorkloadProfile("a", "graph", 0.5, 1.0, 1.0, 0.0, 1.0, 1.0)
        b = WorkloadProfile("b", "graph", 0.5, 2.0, 1.0, 0.0, 1.0, 1.0)
        k = knob()
        assert perf_model.compute_rate(b, k) == pytest.approx(
            2.0 * perf_model.compute_rate(a, k)
        )


class TestMemoryRate:
    def test_infinite_for_zero_traffic(self, perf_model):
        pure = WorkloadProfile("pure", "media", 0.9, 1.0, 1.0, 0.0, 1.0, 1.0)
        assert perf_model.memory_rate(pure, knob()) == float("inf")

    def test_bandwidth_grows_with_dram_allocation(self, perf_model, stream):
        low = perf_model.memory_rate(stream, knob(m=3.0))
        high = perf_model.memory_rate(stream, knob(m=10.0))
        assert high > low

    def test_core_pull_limits_bandwidth(self, perf_model, config):
        # One core cannot pull the full DIMM allocation's bandwidth.
        one = perf_model.usable_bandwidth_gbs(knob(n=1, m=10.0))
        six = perf_model.usable_bandwidth_gbs(knob(n=6, m=10.0))
        assert one < six
        assert one <= config.core_bw_gbs  # <= one core's pull at f_max

    def test_allocation_limits_bandwidth(self, perf_model, config):
        bw = perf_model.usable_bandwidth_gbs(knob(n=6, m=4.0))
        expected = (4.0 - config.dram_static_w) / config.dram_w_per_gbs
        assert bw == pytest.approx(expected)


class TestAchievedRate:
    def test_rate_never_exceeds_either_bound(self, perf_model, stream):
        for m in (3.0, 6.0, 10.0):
            k = knob(m=m)
            r = perf_model.rate(stream, k)
            assert r <= perf_model.compute_rate(stream, k) + 1e-9
            assert r <= perf_model.memory_rate(stream, k) + 1e-9

    def test_stream_is_memory_bound_at_max_knob(self, perf_model, stream):
        k = knob()
        assert perf_model.memory_rate(stream, k) < perf_model.compute_rate(stream, k)

    def test_kmeans_is_compute_bound_at_max_knob(self, perf_model, kmeans):
        k = knob()
        assert perf_model.compute_rate(kmeans, k) < perf_model.memory_rate(kmeans, k)

    def test_zero_memory_rate_gives_zero(self, perf_model, config):
        # An app with traffic but a DRAM allocation at background power.
        hungry = WorkloadProfile("hungry", "memory", 0.9, 1.0, 0.2, 5.0, 0.8, 1.0)
        tiny = KnobSetting(2.0, 6, 3.0)
        # m=3 leaves a little above static power, so rate is small but
        # positive; the hard-zero case needs m == static, which the knob
        # grid cannot express - assert the small-positive behaviour.
        assert 0.0 < perf_model.rate(hungry, tiny) < perf_model.rate(hungry, knob())


class TestMonotonicity:
    """More of any resource never hurts performance."""

    @pytest.mark.parametrize("app_name", ["kmeans", "stream", "sssp", "bfs"])
    def test_frequency_monotone(self, perf_model, config, app_name):
        from repro.workloads.catalog import CATALOG

        profile = CATALOG[app_name]
        rates = [perf_model.rate(profile, knob(f=f)) for f in config.frequencies_ghz]
        assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))

    @pytest.mark.parametrize("app_name", ["kmeans", "stream", "sssp", "bfs"])
    def test_cores_monotone(self, perf_model, config, app_name):
        from repro.workloads.catalog import CATALOG

        profile = CATALOG[app_name]
        rates = [perf_model.rate(profile, knob(n=n)) for n in config.core_counts]
        assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))

    @pytest.mark.parametrize("app_name", ["kmeans", "stream", "sssp", "bfs"])
    def test_dram_monotone(self, perf_model, config, app_name):
        from repro.workloads.catalog import CATALOG

        profile = CATALOG[app_name]
        rates = [perf_model.rate(profile, knob(m=m)) for m in config.dram_powers_w]
        assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))


class TestNormalization:
    def test_relative_performance_at_max_knob_is_one(self, perf_model, config, kmeans):
        rate = perf_model.rate(kmeans, config.max_knob)
        assert rate / perf_model.peak_rate(kmeans) == pytest.approx(1.0)

    def test_relative_performance_below_one_elsewhere(self, perf_model, config, kmeans):
        assert perf_model.rate(kmeans, config.min_knob) < perf_model.peak_rate(kmeans)

    def test_peak_rate_positive_for_catalog(self, perf_model):
        from repro.workloads.catalog import CATALOG

        for profile in CATALOG.values():
            assert perf_model.peak_rate(profile) > 0


class TestUtilization:
    def test_compute_bound_app_fully_utilized(self, perf_model, kmeans):
        assert perf_model.core_utilization(kmeans, knob()) > 0.9

    def test_memory_bound_app_stalls(self, perf_model, stream):
        assert perf_model.core_utilization(stream, knob()) < 0.6

    def test_utilization_bounded(self, perf_model):
        from repro.workloads.catalog import CATALOG

        for profile in CATALOG.values():
            u = perf_model.core_utilization(profile, knob())
            assert 0.0 <= u <= 1.0
