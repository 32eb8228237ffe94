"""Heartbeats: registration, windowed rates, decay, noise."""

import pytest

from repro.errors import ConfigurationError, SchedulingError
from repro.server.heartbeats import HeartbeatMonitor


@pytest.fixture()
def monitor():
    return HeartbeatMonitor()


class TestRegistration:
    def test_register_and_list(self, monitor):
        monitor.register("a")
        monitor.register("b")
        assert monitor.registered() == ["a", "b"]

    def test_duplicate_registration_rejected(self, monitor):
        monitor.register("a")
        with pytest.raises(SchedulingError):
            monitor.register("a")

    def test_unregister(self, monitor):
        monitor.register("a")
        monitor.unregister("a")
        assert monitor.registered() == []

    def test_unregister_unknown_rejected(self, monitor):
        with pytest.raises(SchedulingError):
            monitor.unregister("ghost")

    def test_emit_for_unknown_rejected(self, monitor):
        with pytest.raises(SchedulingError):
            monitor.emit("ghost", 0.1, 1.0)


class TestRates:
    def test_steady_rate(self, monitor):
        monitor.register("a")
        for i in range(1, 41):
            monitor.emit("a", i * 0.1, 0.5)  # 5 beats/s
        assert monitor.heart_rate("a") == pytest.approx(5.0, rel=0.05)

    def test_rate_decays_to_zero_when_suspended(self, monitor):
        monitor.register("a")
        for i in range(1, 21):
            monitor.emit("a", i * 0.1, 1.0)
        assert monitor.heart_rate("a") > 0
        for i in range(21, 60):
            monitor.emit("a", i * 0.1, 0.0)  # suspended
        assert monitor.heart_rate("a") == 0.0

    def test_empty_history_rate_is_zero(self, monitor):
        monitor.register("a")
        assert monitor.heart_rate("a") == 0.0

    def test_negative_beats_rejected(self, monitor):
        monitor.register("a")
        with pytest.raises(ConfigurationError):
            monitor.emit("a", 0.1, -1.0)


class TestEmitValidation:
    """A lying or corrupted reporter must fail loudly, never skew a rate."""

    @pytest.mark.parametrize("beats", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_beats_rejected(self, monitor, beats):
        monitor.register("a")
        with pytest.raises(ConfigurationError, match="non-finite heartbeat count"):
            monitor.emit("a", 0.1, beats)

    @pytest.mark.parametrize("time_s", [float("nan"), float("inf")])
    def test_non_finite_timestamp_rejected(self, monitor, time_s):
        monitor.register("a")
        with pytest.raises(ConfigurationError, match="non-finite heartbeat timestamp"):
            monitor.emit("a", time_s, 1.0)

    def test_duplicate_tick_report_rejected(self, monitor):
        monitor.register("a")
        monitor.emit("a", 0.1, 1.0)
        with pytest.raises(ConfigurationError, match="duplicate heartbeat report"):
            monitor.emit("a", 0.1, 1.0)  # would double-count silently

    def test_time_travel_rejected(self, monitor):
        monitor.register("a")
        monitor.emit("a", 0.2, 1.0)
        with pytest.raises(ConfigurationError, match="already reported through"):
            monitor.emit("a", 0.1, 1.0)

    def test_rejected_report_leaves_totals_untouched(self, monitor):
        monitor.register("a")
        monitor.emit("a", 0.1, 1.0)
        with pytest.raises(ConfigurationError):
            monitor.emit("a", 0.1, float("nan"))
        assert monitor.exact_rate("a") == pytest.approx(1.0 / 2.0)  # window 2 s
        monitor.emit("a", 0.2, 1.0)  # the stream recovers after the reject
        assert monitor.exact_rate("a") == pytest.approx(2.0 / 2.0)


class TestNoise:
    def test_noise_is_seeded_and_nonnegative(self):
        a = HeartbeatMonitor(noise_relative_std=0.1, seed=3)
        b = HeartbeatMonitor(noise_relative_std=0.1, seed=3)
        for m in (a, b):
            m.register("x")
            m.emit("x", 0.1, 1.0)
        assert a.heart_rate("x") == b.heart_rate("x")
        assert a.heart_rate("x") >= 0.0

    def test_invalid_noise_rejected(self):
        with pytest.raises(ConfigurationError):
            HeartbeatMonitor(noise_relative_std=-0.1)
