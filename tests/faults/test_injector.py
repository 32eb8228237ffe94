"""Fault injector: window mechanics, substrate hooks, telemetry filtering."""

import pytest

from repro.esd.battery import LeadAcidBattery
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.server.config import KnobSetting
from repro.server.server import SimulatedServer
from repro.workloads.catalog import CATALOG


@pytest.fixture()
def server():
    srv = SimulatedServer()
    for name in ("kmeans", "x264"):
        srv.admit(CATALOG[name].with_total_work(float("inf")))
    return srv


def make_injector(server, *specs, seed=0, battery=None):
    return FaultInjector(
        FaultPlan(specs=tuple(specs), seed=seed), server, battery=battery
    )


class TestWindows:
    def test_enter_and_exit_transitions(self, server):
        spec = FaultSpec(kind="rapl", mode="drop", start_s=1.0, duration_s=2.0)
        inj = make_injector(server, spec)
        assert inj.begin_tick(0.0) == ([], [])
        _, transitions = inj.begin_tick(1.0)
        assert len(transitions) == 1 and transitions[0].entered
        assert inj.active_kinds() == {"rapl"}
        _, transitions = inj.begin_tick(3.0)
        assert len(transitions) == 1 and not transitions[0].entered
        assert inj.active_kinds() == set()

    def test_instant_fires_exactly_once(self, server):
        spec = FaultSpec(kind="app", mode="crash", start_s=1.0, target="x264")
        inj = make_injector(server, spec)
        crashed, transitions = inj.begin_tick(1.5)
        assert crashed == ["x264"]
        assert len(transitions) == 1 and transitions[0].entered
        assert inj.begin_tick(2.0) == ([], [])

    def test_unnamed_target_resolves_alphabetically_first(self, server):
        spec = FaultSpec(kind="app", mode="hang", start_s=0.0, duration_s=1.0)
        inj = make_injector(server, spec)
        _, transitions = inj.begin_tick(0.0)
        assert transitions[0].target == "kmeans"
        assert server.handle_of("kmeans").hung


class TestRaplFaults:
    def test_drop_swallows_writes(self, server):
        spec = FaultSpec(kind="rapl", mode="drop", start_s=0.0, duration_s=1.0)
        inj = make_injector(server, spec)
        inj.begin_tick(0.0)
        before = server.knobs.knob_of("kmeans")
        assert not server.knobs.set_knob("kmeans", server.config.min_knob)
        assert server.knobs.knob_of("kmeans") == before
        assert "kmeans" in server.knobs.failed_writes()
        inj.begin_tick(2.0)  # window closed: writes land again
        assert server.knobs.set_knob("kmeans", server.config.min_knob)

    def test_partial_lands_only_frequency(self, server):
        spec = FaultSpec(kind="rapl", mode="partial", start_s=0.0, duration_s=1.0)
        inj = make_injector(server, spec)
        inj.begin_tick(0.0)
        current = server.knobs.knob_of("kmeans")
        requested = KnobSetting(
            server.config.freq_min_ghz, current.cores - 1, current.dram_power_w
        )
        assert not server.knobs.set_knob("kmeans", requested)
        landed = server.knobs.knob_of("kmeans")
        assert landed.freq_ghz == requested.freq_ghz
        assert landed.cores == current.cores  # torn write: cores untouched

    def test_stale_readback_reports_pre_fault_knob(self, server):
        pre = server.knobs.knob_of("kmeans")
        spec = FaultSpec(kind="rapl", mode="stale", start_s=0.0, duration_s=1.0)
        inj = make_injector(server, spec)
        inj.begin_tick(0.0)
        assert not server.knobs.set_knob("kmeans", server.config.min_knob)
        # The write landed (true knob moved) but readback lies.
        assert server.knobs.knob_of("kmeans") == server.config.min_knob
        assert server.knobs.readback("kmeans") == pre
        inj.begin_tick(2.0)
        assert server.knobs.readback("kmeans") == server.config.min_knob


class TestTelemetryFaults:
    def test_drop_loses_samples(self, server):
        spec = FaultSpec(kind="telemetry", mode="drop", start_s=0.0, duration_s=1.0)
        inj = make_injector(server, spec)
        inj.begin_tick(0.0)
        assert inj.filter_wall_sample(80.0) == (None, False)
        assert "telemetry" in inj.active_kinds()

    def test_stale_freezes_last_healthy_sample(self, server):
        spec = FaultSpec(kind="telemetry", mode="stale", start_s=1.0, duration_s=1.0)
        inj = make_injector(server, spec)
        inj.begin_tick(0.0)
        assert inj.filter_wall_sample(75.0) == (75.0, True)
        inj.begin_tick(1.0)
        assert inj.filter_wall_sample(90.0) == (75.0, False)

    def test_noise_is_seeded_and_fresh(self, server):
        spec = FaultSpec(
            kind="telemetry", mode="noise", start_s=0.0, duration_s=1.0, magnitude=2.0
        )
        a = make_injector(server, spec, seed=5)
        b = make_injector(server, spec, seed=5)
        a.begin_tick(0.0)
        b.begin_tick(0.0)
        va, fresh_a = a.filter_wall_sample(80.0)
        vb, fresh_b = b.filter_wall_sample(80.0)
        assert fresh_a and fresh_b
        assert va == vb
        assert va != 80.0

    def test_healthy_samples_pass_through(self, server):
        inj = make_injector(server)
        inj.begin_tick(0.0)
        assert inj.filter_wall_sample(66.0) == (66.0, True)

    def test_blackout_freezes_heartbeats(self, server):
        spec = FaultSpec(kind="telemetry", mode="drop", start_s=0.0, duration_s=1.0)
        inj = make_injector(server, spec)
        inj.begin_tick(0.0)
        assert server.heartbeats.in_blackout
        inj.begin_tick(2.0)
        assert not server.heartbeats.in_blackout


class TestBatteryFaults:
    def test_outage_toggles_availability(self, server):
        battery = LeadAcidBattery(1000.0, initial_soc=0.5)
        spec = FaultSpec(kind="battery", mode="outage", start_s=0.0, duration_s=1.0)
        inj = make_injector(server, spec, battery=battery)
        inj.begin_tick(0.0)
        assert not battery.available
        inj.begin_tick(2.0)
        assert battery.available

    def test_derate_scales_discharge_and_restores(self, server):
        battery = LeadAcidBattery(1000.0, max_discharge_w=60.0, initial_soc=0.5)
        spec = FaultSpec(
            kind="battery", mode="derate", start_s=0.0, duration_s=1.0, magnitude=0.5
        )
        inj = make_injector(server, spec, battery=battery)
        inj.begin_tick(0.0)
        assert battery.max_discharge_w == pytest.approx(30.0)
        inj.begin_tick(2.0)
        assert battery.max_discharge_w == pytest.approx(60.0)

    def test_fade_shrinks_capacity_once(self, server):
        battery = LeadAcidBattery(1000.0, initial_soc=1.0)
        spec = FaultSpec(kind="battery", mode="fade", start_s=0.0, magnitude=0.2)
        inj = make_injector(server, spec, battery=battery)
        inj.begin_tick(0.0)
        assert battery.capacity_j == pytest.approx(800.0)
        assert battery.total_faded_j == pytest.approx(200.0)
        inj.begin_tick(1.0)
        assert battery.capacity_j == pytest.approx(800.0)

    def test_battery_specs_inert_without_battery(self, server):
        spec = FaultSpec(kind="battery", mode="outage", start_s=0.0, duration_s=1.0)
        inj = make_injector(server, spec)
        crashed, transitions = inj.begin_tick(0.0)
        assert not crashed and len(transitions) == 1


class TestAppFaults:
    def test_hang_toggles_handle_flag(self, server):
        spec = FaultSpec(
            kind="app", mode="hang", start_s=0.0, duration_s=1.0, target="x264"
        )
        inj = make_injector(server, spec)
        inj.begin_tick(0.0)
        assert server.handle_of("x264").hung
        inj.begin_tick(2.0)
        assert not server.handle_of("x264").hung

    def test_hung_app_draws_power_but_makes_no_progress(self, server):
        spec = FaultSpec(
            kind="app", mode="hang", start_s=0.0, duration_s=5.0, target="kmeans"
        )
        inj = make_injector(server, spec)
        inj.begin_tick(0.0)
        result = server.tick(0.1)
        assert result.progressed["kmeans"] == 0.0
        assert result.breakdown.app_w["kmeans"] > 0.0
        assert result.progressed["x264"] > 0.0
