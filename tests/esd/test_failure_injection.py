"""ESD failure injection: undersized, inefficient, or power-limited
batteries must degrade the scheme gracefully, never break the cap."""

import pytest

from repro.core.coordinator import CoordinationMode
from repro.core.mediator import PowerMediator
from repro.core.policies import make_policy
from repro.esd.battery import LeadAcidBattery
from repro.server.server import SimulatedServer
from repro.workloads.mixes import get_mix


def run_esd(config, battery, cap=80.0, seconds=40.0):
    server = SimulatedServer(config)
    mediator = PowerMediator(
        server,
        make_policy("app+res+esd-aware"),
        cap,
        battery=battery,
        use_oracle_estimates=True,
    )
    for profile in get_mix(10).profiles():
        mediator.add_application(profile.with_total_work(float("inf")))
    mediator.run_for(seconds)
    return mediator


class TestBatteryFailureModes:
    def test_tiny_battery_extends_off_phase(self, config):
        """A battery that holds less than one ON phase keeps banking; the
        cap holds and *some* work eventually happens once it fills."""
        tiny = LeadAcidBattery(
            capacity_j=60.0, efficiency=0.7, max_charge_w=50.0, max_discharge_w=60.0
        )
        mediator = run_esd(config, tiny, seconds=60.0)
        for record in mediator.timeline:
            assert record.wall_w <= 80.0 + 1e-6

    def test_weak_discharge_shrinks_on_knobs(self, config):
        """A 25 W discharge limit cannot cover the full-knob overshoot
        (~40 W); the allocator must pick cheaper ON knobs instead of
        violating the cap."""
        weak = LeadAcidBattery(
            capacity_j=300_000.0,
            efficiency=0.7,
            max_charge_w=50.0,
            max_discharge_w=25.0,
        )
        mediator = run_esd(config, weak)
        plan = mediator.coordinator.plan
        assert plan.mode is CoordinationMode.ESD
        assert plan.duty_cycle.discharge_w <= 25.0 + 1e-9
        for record in mediator.timeline:
            assert record.wall_w <= 80.0 + 1e-6
        assert mediator.server_objective(since_s=15.0) > 0.05

    def test_awful_efficiency_still_sustainable(self, config):
        lossy = LeadAcidBattery(
            capacity_j=300_000.0,
            efficiency=0.3,
            max_charge_w=50.0,
            max_discharge_w=60.0,
        )
        mediator = run_esd(config, lossy, seconds=60.0)
        cycle = mediator.coordinator.plan.duty_cycle
        # Eq. 5 responds by lengthening the OFF phase, not by overdrawing.
        assert cycle.off_s > cycle.on_s * 2
        for record in mediator.timeline:
            assert record.wall_w <= 80.0 + 1e-6

    def test_efficiency_orders_throughput(self, config):
        results = {}
        for eta in (0.4, 0.9):
            battery = LeadAcidBattery(
                capacity_j=300_000.0,
                efficiency=eta,
                max_charge_w=50.0,
                max_discharge_w=60.0,
            )
            mediator = run_esd(config, battery, seconds=60.0)
            results[eta] = mediator.server_objective(since_s=20.0)
        assert results[0.9] > results[0.4]

    def test_reserve_floor_respected_by_scheme(self, config):
        reserved = LeadAcidBattery(
            capacity_j=5_000.0,
            efficiency=0.7,
            max_charge_w=50.0,
            max_discharge_w=60.0,
            reserve_fraction=0.5,
            initial_soc=0.5,
        )
        mediator = run_esd(config, reserved, seconds=40.0)
        assert min(r.battery_soc for r in mediator.timeline) >= 0.5 - 1e-9
