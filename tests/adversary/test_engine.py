"""AdversaryEngine: hook programming, burst timing, and persistence."""

import pytest

from repro.adversary.engine import AdversaryEngine
from repro.adversary.plan import AdversarySchedule, AdversarySpec
from repro.errors import AdversaryError
from repro.server.server import SimulatedServer
from repro.workloads.catalog import CATALOG


@pytest.fixture()
def server(config):
    s = SimulatedServer(config)
    s.admit(CATALOG["stream"])
    return s


def probe_spec(**overrides) -> AdversarySpec:
    base = dict(
        app="stream", kind="probe", start_s=1.0, duration_s=5.0,
        magnitude=6.0, period_s=1.0, burst_s=0.3,
    )
    base.update(overrides)
    return AdversarySpec(**base)


class TestRegistration:
    def test_register_and_list(self, server):
        engine = AdversaryEngine(server)
        s = probe_spec()
        engine.register(s)
        assert engine.specs() == [s]

    def test_identical_reregistration_is_a_noop(self, server):
        # Recovery re-executes admissions; the same spec must not trip.
        engine = AdversaryEngine(server)
        engine.register(probe_spec())
        engine.register(probe_spec())
        assert len(engine.specs()) == 1

    def test_conflicting_spec_rejected(self, server):
        engine = AdversaryEngine(server)
        engine.register(probe_spec())
        with pytest.raises(AdversaryError, match="already has a registered"):
            engine.register(probe_spec(kind="spike"))

    def test_forget_clears_live_hooks(self, server):
        engine = AdversaryEngine(server)
        engine.register(probe_spec(start_s=0.0))
        # Drive into the first burst (its phase jitter is seed-dependent).
        for i in range(11):
            engine.begin_tick(i * 0.1)
            if server.parasitic_power_of("stream") > 0.0:
                break
        assert server.parasitic_power_of("stream") == 6.0
        engine.forget("stream")
        assert server.parasitic_power_of("stream") == 0.0
        assert engine.specs() == []


class TestWindows:
    def test_window_edges_reported_once(self, server):
        engine = AdversaryEngine(server)
        engine.register(probe_spec(start_s=1.0, duration_s=2.0, seed=0))
        edges = []
        for i in range(50):
            edges += engine.begin_tick(i * 0.1)
        assert edges == [
            ("stream", "probe", "start"),
            ("stream", "probe", "stop"),
        ]
        # Hooks are cleared once the window closes.
        assert server.parasitic_power_of("stream") == 0.0

    def test_inflate_programs_heartbeat_hook(self, server):
        engine = AdversaryEngine(server)
        engine.register(
            AdversarySpec(
                app="stream", kind="inflate", start_s=0.0, duration_s=1.0,
                magnitude=0.5,
            )
        )
        engine.begin_tick(0.0)
        assert server.heartbeat_inflation_of("stream") == 1.5
        for i in range(1, 15):
            engine.begin_tick(i * 0.1)
        assert server.heartbeat_inflation_of("stream") == 1.0

    def test_probe_bursts_follow_the_period(self, server):
        # seed=0 with the engine's base seed gives some fixed jitter; the
        # burst pattern must repeat with the spec's period.
        engine = AdversaryEngine(server)
        engine.register(probe_spec(start_s=0.0, duration_s=4.0, seed=3))
        pattern = []
        for i in range(40):  # 4 s at dt=0.1 -> four 1 s periods
            engine.begin_tick(i * 0.1)
            pattern.append(server.parasitic_power_of("stream") > 0.0)
        assert pattern[:10] == pattern[10:20] == pattern[20:30]
        assert sum(pattern[:10]) == 3  # 0.3 s of every 1 s period

    def test_probe_jitter_is_deterministic_per_seed(self, config):
        def pattern(seed):
            srv = SimulatedServer(config)
            srv.admit(CATALOG["stream"])
            engine = AdversaryEngine(
                srv, AdversarySchedule(specs=(probe_spec(start_s=0.0, seed=seed),))
            )
            out = []
            for i in range(20):
                engine.begin_tick(i * 0.1)
                out.append(srv.parasitic_power_of("stream"))
            return out

        assert pattern(1) == pattern(1)

    def test_spike_locks_to_the_duty_cycle_period(self, server, config):
        engine = AdversaryEngine(server)
        engine.register(
            AdversarySpec(
                app="stream", kind="spike", start_s=0.0, duration_s=25.0,
                magnitude=6.0, burst_s=0.3,
            )
        )
        burst_ticks = []
        for i in range(250):
            engine.begin_tick(i * 0.1)
            if server.parasitic_power_of("stream") > 0.0:
                burst_ticks.append(i)
        period_ticks = int(config.duty_cycle_period_s / 0.1)
        assert burst_ticks[:3] == [0, 1, 2]
        assert [t + period_ticks for t in burst_ticks[:3]] == burst_ticks[3:6]

    def test_freeride_fires_only_on_discharge_edges(self, server):
        engine = AdversaryEngine(server)
        engine.register(
            AdversarySpec(
                app="stream", kind="freeride", start_s=0.0, duration_s=10.0,
                magnitude=4.0, burst_s=0.2,
            )
        )
        draws = []
        # OFF for 5 ticks, ON for 5, OFF again: the parasite may only fire
        # at the start of the ON phase.
        phases = [False] * 5 + [True] * 5 + [False] * 5
        for i, esd_on in enumerate(phases):
            engine.begin_tick(i * 0.1, esd_on=esd_on)
            draws.append(server.parasitic_power_of("stream"))
        assert draws[:5] == [0.0] * 5
        assert draws[5] == 4.0 and draws[6] == 4.0  # 0.2 s burst at the edge
        assert draws[7:] == [0.0] * 8


class TestCalibrationDistortion:
    def test_inflate_lies_proportionally_to_power(self, server):
        engine = AdversaryEngine(server)
        engine.register(
            AdversarySpec(
                app="stream", kind="inflate", start_s=0.0, duration_s=10.0,
                magnitude=0.6,
            )
        )
        low = engine.distort_calibration("stream", 1.0, 2.0, 10.0, 20.0)
        high = engine.distort_calibration("stream", 1.0, 20.0, 10.0, 20.0)
        assert low == pytest.approx(10.0 * (1.0 + 0.6 * 0.1))
        assert high == pytest.approx(10.0 * 1.6)
        assert high > low  # shape-changing, not a uniform scale

    def test_honest_apps_and_closed_windows_are_untouched(self, server):
        engine = AdversaryEngine(server)
        assert engine.distort_calibration("stream", 1.0, 5.0, 10.0, 20.0) == 10.0
        engine.register(
            AdversarySpec(
                app="stream", kind="inflate", start_s=5.0, duration_s=1.0,
                magnitude=0.6,
            )
        )
        assert engine.distort_calibration("stream", 1.0, 5.0, 10.0, 20.0) == 10.0

    def test_power_attacks_do_not_distort_calibration(self, server):
        engine = AdversaryEngine(server)
        engine.register(probe_spec(start_s=0.0))
        assert engine.distort_calibration("stream", 0.5, 5.0, 10.0, 20.0) == 10.0


class TestPersistence:
    def test_state_round_trips_through_json(self, server):
        import json

        engine = AdversaryEngine(server)
        engine.register(probe_spec(seed=9))
        for i in range(25):
            engine.begin_tick(i * 0.1, esd_on=i % 2 == 0)
        state = json.loads(json.dumps(engine.state_dict()))
        restored = AdversaryEngine(server)
        restored.load_state_dict(state)
        assert restored.state_dict() == engine.state_dict()
        assert restored.specs() == engine.specs()
