"""Cluster power traces: diurnal shape, peak shaving."""

import pytest

from repro.errors import ConfigurationError
from repro.workloads.traces import (
    DIURNAL_NOISE_FRACTION,
    DIURNAL_TROUGH_FRACTION,
    ClusterPowerTrace,
    peak_shaving_caps,
)


class TestTraceBasics:
    def test_construction_validation(self):
        with pytest.raises(ConfigurationError):
            ClusterPowerTrace(step_s=0.0, demand_w=(1.0,))
        with pytest.raises(ConfigurationError):
            ClusterPowerTrace(step_s=1.0, demand_w=())
        with pytest.raises(ConfigurationError):
            ClusterPowerTrace(step_s=1.0, demand_w=(-1.0,))

    def test_duration_and_peaks(self):
        trace = ClusterPowerTrace(step_s=60.0, demand_w=(100.0, 200.0, 150.0))
        assert trace.peak_w == 200.0
        assert trace.trough_w == 100.0

    def test_zero_order_hold_lookup(self):
        trace = ClusterPowerTrace(step_s=60.0, demand_w=(100.0, 200.0))
        assert trace.at(0.0) == 100.0
        assert trace.at(59.0) == 100.0
        assert trace.at(60.0) == 200.0
        assert trace.at(10_000.0) == 200.0  # clamped to the end

    def test_negative_time_rejected(self):
        trace = ClusterPowerTrace(step_s=60.0, demand_w=(100.0,))
        with pytest.raises(ConfigurationError):
            trace.at(-1.0)


class TestSyntheticDiurnal:
    def test_peak_and_trough_match_spec(self):
        trace = ClusterPowerTrace.synthetic_diurnal(peak_w=1000.0)
        assert trace.peak_w == pytest.approx(1000.0, rel=0.01)
        # The trough, within five standard deviations of the noise.
        assert trace.trough_w == pytest.approx(
            1000.0 * DIURNAL_TROUGH_FRACTION, rel=5 * DIURNAL_NOISE_FRACTION
        )

    def test_deterministic_for_seed(self):
        a = ClusterPowerTrace.synthetic_diurnal(peak_w=1000.0, seed=3)
        b = ClusterPowerTrace.synthetic_diurnal(peak_w=1000.0, seed=3)
        assert a.demand_w == b.demand_w

    def test_demand_never_exceeds_peak(self):
        trace = ClusterPowerTrace.synthetic_diurnal(peak_w=1000.0, seed=1)
        assert max(trace.demand_w) <= 1000.0

    def test_multiple_days(self):
        trace = ClusterPowerTrace.synthetic_diurnal(peak_w=100.0, days=2.0)
        assert len(trace.demand_w) * trace.step_s == pytest.approx(2 * 86400.0, rel=0.01)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterPowerTrace.synthetic_diurnal(peak_w=0.0)
        with pytest.raises(ConfigurationError):
            ClusterPowerTrace.synthetic_diurnal(peak_w=100.0, days=0.0)


class TestPeakShaving:
    def test_cap_plateaus_at_ceiling(self):
        trace = ClusterPowerTrace(step_s=1.0, demand_w=(100.0, 80.0, 50.0))
        caps = peak_shaving_caps(trace, 0.30)
        assert caps.demand_w == (70.0, 70.0, 50.0)

    def test_zero_shaving_is_identity(self):
        trace = ClusterPowerTrace(step_s=1.0, demand_w=(100.0, 80.0))
        caps = peak_shaving_caps(trace, 0.0)
        assert caps.demand_w == trace.demand_w

    def test_cap_never_above_demand(self):
        trace = ClusterPowerTrace.synthetic_diurnal(peak_w=500.0, seed=2)
        caps = peak_shaving_caps(trace, 0.15)
        assert all(c <= d for c, d in zip(caps.demand_w, trace.demand_w))

    def test_invalid_fraction_rejected(self):
        trace = ClusterPowerTrace(step_s=1.0, demand_w=(100.0,))
        with pytest.raises(ConfigurationError):
            peak_shaving_caps(trace, 1.0)
        with pytest.raises(ConfigurationError):
            peak_shaving_caps(trace, -0.1)
