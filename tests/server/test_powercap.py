"""Hardware powercap zones: closed-loop per-app isolation."""

import pytest

from repro.errors import ConfigurationError, SchedulingError
from repro.server.config import ServerConfig
from repro.server.powercap import HardwarePowercap, PowercapZone
from repro.server.server import SimulatedServer
from repro.workloads.catalog import CATALOG


def run_with_zones(server, powercap, seconds, dt=0.1):
    result = None
    for _ in range(int(seconds / dt)):
        result = server.tick(dt)
        powercap.on_tick(result)
    return result


@pytest.fixture()
def capped_server(config):
    server = SimulatedServer(config)
    server.admit(CATALOG["kmeans"].with_total_work(float("inf")))
    server.admit(CATALOG["stream"].with_total_work(float("inf")))
    return server


class TestZoneValidation:
    def test_invalid_limit_rejected(self, config):
        with pytest.raises(ConfigurationError):
            PowercapZone("a", 0.0, config)

    def test_invalid_window_rejected(self, config):
        with pytest.raises(ConfigurationError):
            PowercapZone("a", 10.0, config, window_s=0.0)

    def test_invalid_hysteresis_rejected(self, config):
        with pytest.raises(ConfigurationError):
            PowercapZone("a", 10.0, config, hysteresis=1.0)

    def test_limit_setter_validates(self, config):
        zone = PowercapZone("a", 10.0, config)
        with pytest.raises(ConfigurationError):
            zone.limit_w = -1.0

    def test_zone_for_unknown_app_rejected(self, capped_server):
        with pytest.raises(SchedulingError):
            HardwarePowercap(capped_server).set_zone("ghost", 10.0)


class TestClosedLoop:
    def test_converges_below_limit(self, capped_server):
        powercap = HardwarePowercap(capped_server)
        powercap.set_zone("kmeans", 12.0)
        result = run_with_zones(capped_server, powercap, 25.0)
        assert result.breakdown.app_w["kmeans"] <= 12.0 + 1e-9

    def test_unthrottles_when_limit_rises(self, capped_server):
        powercap = HardwarePowercap(capped_server)
        zone = powercap.set_zone("kmeans", 12.0)
        run_with_zones(capped_server, powercap, 25.0)
        throttled = zone.position
        assert throttled > 0
        zone.limit_w = 30.0  # far above demand: the zone should fully relax
        run_with_zones(capped_server, powercap, 25.0)
        assert zone.position < throttled
        assert zone.stats.unthrottle_steps > 0

    def test_generous_limit_never_throttles(self, capped_server):
        powercap = HardwarePowercap(capped_server)
        zone = powercap.set_zone("kmeans", 30.0)
        run_with_zones(capped_server, powercap, 10.0)
        assert zone.position == 0
        assert zone.stats.throttle_steps == 0

    def test_zones_isolate_independently(self, capped_server):
        """One zone's throttling never touches the other app's knob."""
        powercap = HardwarePowercap(capped_server)
        powercap.set_zone("kmeans", 10.0)
        run_with_zones(capped_server, powercap, 20.0)
        assert capped_server.knobs.knob_of("stream") == capped_server.config.max_knob

    def test_sum_of_zone_limits_bounds_dynamic_power(self, capped_server):
        powercap = HardwarePowercap(capped_server)
        powercap.set_zone("kmeans", 11.0)
        powercap.set_zone("stream", 12.0)
        run_with_zones(capped_server, powercap, 30.0)
        result = run_with_zones(capped_server, powercap, 5.0)
        assert result.breakdown.dynamic_w <= 11.0 + 12.0 + 1e-9

    def test_violation_ticks_counted_then_corrected(self, capped_server):
        powercap = HardwarePowercap(capped_server)
        zone = powercap.set_zone("kmeans", 12.0)
        run_with_zones(capped_server, powercap, 25.0)
        # Transient violations existed while the loop converged...
        assert zone.stats.violation_ticks > 0
        before = zone.stats.violation_ticks
        run_with_zones(capped_server, powercap, 10.0)
        # ...but none occur at steady state.
        assert zone.stats.violation_ticks == before

    def test_suspended_app_is_left_alone(self, capped_server):
        powercap = HardwarePowercap(capped_server)
        zone = powercap.set_zone("kmeans", 12.0)
        capped_server.suspend("kmeans")
        run_with_zones(capped_server, powercap, 5.0)
        assert zone.stats.throttle_steps == 0

    def test_zone_respects_group_width(self, config):
        server = SimulatedServer(config)
        server.admit(
            CATALOG["kmeans"].with_total_work(float("inf")), group_width=3
        )
        powercap = HardwarePowercap(server)
        powercap.set_zone("kmeans", 8.0)
        run_with_zones(server, powercap, 25.0)
        assert server.knobs.knob_of("kmeans").cores <= 3

    def test_replacing_a_zone_resets_control(self, capped_server):
        powercap = HardwarePowercap(capped_server)
        powercap.set_zone("kmeans", 12.0)
        run_with_zones(capped_server, powercap, 15.0)
        fresh = powercap.set_zone("kmeans", 15.0)
        assert fresh.position == 0
