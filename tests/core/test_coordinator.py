"""Coordinator: plan execution in SPACE, TIME, ESD, and IDLE modes."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.core.allocator import Allocation, AppAllocation
from repro.core.coordinator import (
    AllocationPlan,
    CoordinationMode,
    Coordinator,
    TimeSlot,
)
from repro.esd.battery import LeadAcidBattery
from repro.esd.controller import EsdController, compute_duty_cycle
from repro.server.config import KnobSetting
from repro.server.server import SimulatedServer


def record_for(names, knob, power=15.0, rel=0.7, budget=30.0):
    apps = {
        n: AppAllocation(app=n, excluded=False, knob=knob, power_w=power, relative_perf=rel)
        for n in names
    }
    return Allocation(budget_w=budget, apps=apps, objective=rel * len(names))


@pytest.fixture()
def loaded_server(config, kmeans, stream):
    server = SimulatedServer(config)
    server.admit(kmeans)
    server.admit(stream)
    return server


class TestPlanValidation:
    def test_time_mode_needs_slots(self):
        with pytest.raises(ConfigurationError):
            AllocationPlan(mode=CoordinationMode.TIME, p_cap_w=80.0)

    def test_esd_mode_needs_cycle(self):
        with pytest.raises(ConfigurationError):
            AllocationPlan(mode=CoordinationMode.ESD, p_cap_w=70.0)

    def test_slot_needs_knobs_for_apps(self):
        with pytest.raises(ConfigurationError):
            TimeSlot(apps=("a",), duration_s=1.0, knobs={})

    def test_slot_needs_positive_duration(self):
        with pytest.raises(ConfigurationError):
            TimeSlot(apps=(), duration_s=0.0)

    def test_step_without_plan_rejected(self, loaded_server):
        with pytest.raises(SimulationError):
            Coordinator(loaded_server).step(0.1)

    def test_esd_plan_without_controller_rejected(self, loaded_server, config):
        cycle = compute_duty_cycle(
            p_idle_w=50.0, p_cm_w=20.0, sum_app_w=40.0,
            p_cap_w=80.0, efficiency=0.7, period_s=10.0,
        )
        plan = AllocationPlan(
            mode=CoordinationMode.ESD, p_cap_w=80.0, duty_cycle=cycle,
            knobs={"kmeans": config.max_knob},
        )
        with pytest.raises(ConfigurationError):
            Coordinator(loaded_server).adopt(plan)


class TestSpaceMode:
    def test_applies_knobs_and_runs_everyone(self, loaded_server, config):
        knob = KnobSetting(1.5, 4, 6.0)
        plan = AllocationPlan(
            mode=CoordinationMode.SPACE,
            p_cap_w=100.0,
            allocation=record_for(["kmeans", "stream"], knob),
            knobs={"kmeans": knob, "stream": knob},
        )
        coordinator = Coordinator(loaded_server)
        coordinator.adopt(plan)
        assert loaded_server.active_applications() == ["kmeans", "stream"]
        assert loaded_server.knobs.knob_of("kmeans") == knob

    def test_apps_without_knobs_are_suspended(self, loaded_server, config):
        knob = config.max_knob
        plan = AllocationPlan(
            mode=CoordinationMode.SPACE,
            p_cap_w=100.0,
            allocation=record_for(["kmeans"], knob),
            knobs={"kmeans": knob},
        )
        coordinator = Coordinator(loaded_server)
        coordinator.adopt(plan)
        assert loaded_server.active_applications() == ["kmeans"]

    def test_step_is_a_noop_action(self, loaded_server, config):
        plan = AllocationPlan(
            mode=CoordinationMode.SPACE,
            p_cap_w=100.0,
            allocation=record_for(["kmeans"], config.max_knob),
            knobs={"kmeans": config.max_knob},
        )
        coordinator = Coordinator(loaded_server)
        coordinator.adopt(plan)
        action = coordinator.step(0.1)
        assert action.esd_charge_w == 0.0
        assert not action.deep_sleep


class TestTimeMode:
    def make_plan(self, config, duration=1.0):
        knob = config.max_knob
        slots = (
            TimeSlot(apps=("kmeans",), duration_s=duration, knobs={"kmeans": knob}),
            TimeSlot(apps=("stream",), duration_s=duration, knobs={"stream": knob}),
        )
        return AllocationPlan(
            mode=CoordinationMode.TIME,
            p_cap_w=80.0,
            allocation=record_for(["kmeans", "stream"], knob),
            slots=slots,
        )

    def test_first_slot_runs_first_app(self, loaded_server, config):
        coordinator = Coordinator(loaded_server)
        coordinator.adopt(self.make_plan(config))
        assert loaded_server.active_applications() == ["kmeans"]

    def test_rotation_switches_apps(self, loaded_server, config):
        coordinator = Coordinator(loaded_server)
        coordinator.adopt(self.make_plan(config, duration=0.5))
        for _ in range(5):  # 0.5 s: crosses into slot 2
            coordinator.step(0.1)
            loaded_server.tick(0.1)
        assert loaded_server.active_applications() == ["stream"]

    def test_rotation_wraps_around(self, loaded_server, config):
        coordinator = Coordinator(loaded_server)
        coordinator.adopt(self.make_plan(config, duration=0.3))
        for _ in range(6):  # 0.6 s: back to slot 1
            coordinator.step(0.1)
            loaded_server.tick(0.1)
        assert loaded_server.active_applications() == ["kmeans"]

    def test_exactly_one_app_runs_at_any_time(self, loaded_server, config):
        coordinator = Coordinator(loaded_server)
        coordinator.adopt(self.make_plan(config, duration=0.4))
        for _ in range(20):
            coordinator.step(0.1)
            loaded_server.tick(0.1)
            assert len(loaded_server.active_applications()) == 1


class TestEsdMode:
    def make_coordinator(self, server, config):
        cycle = compute_duty_cycle(
            p_idle_w=config.p_idle_w,
            p_cm_w=config.p_cm_w,
            sum_app_w=40.0,
            p_cap_w=80.0,
            efficiency=0.7,
            period_s=2.0,
        )
        battery = LeadAcidBattery(
            capacity_j=10_000.0, efficiency=0.7, max_charge_w=50.0, max_discharge_w=60.0
        )
        controller = EsdController(battery, cycle)
        knob = config.max_knob
        plan = AllocationPlan(
            mode=CoordinationMode.ESD,
            p_cap_w=80.0,
            allocation=record_for(["kmeans", "stream"], knob, power=20.0),
            knobs={"kmeans": knob, "stream": knob},
            duty_cycle=cycle,
        )
        coordinator = Coordinator(server)
        coordinator.adopt(plan, esd_controller=controller)
        return coordinator, battery

    def test_off_phase_deep_sleeps_and_banks(self, loaded_server, config):
        coordinator, battery = self.make_coordinator(loaded_server, config)
        action = coordinator.step(0.1)
        loaded_server.tick(
            0.1, esd_charge_w=action.esd_charge_w, deep_sleep=action.deep_sleep
        )
        assert action.deep_sleep
        assert action.esd_charge_w > 0
        assert battery.stored_j > 0
        assert loaded_server.active_applications() == []

    def test_on_phase_runs_all_apps_together(self, loaded_server, config):
        """R4: consolidated duty cycling runs everyone simultaneously."""
        coordinator, battery = self.make_coordinator(loaded_server, config)
        saw_on = False
        for _ in range(60):
            action = coordinator.step(0.1)
            loaded_server.tick(
                0.1,
                esd_charge_w=action.esd_charge_w,
                esd_discharge_w=action.esd_discharge_w,
                deep_sleep=action.deep_sleep,
            )
            active = loaded_server.active_applications()
            assert active == [] or active == ["kmeans", "stream"]
            if active:
                saw_on = True
                assert action.esd_discharge_w > 0
        assert saw_on

    def test_cap_respected_through_full_cycles(self, loaded_server, config):
        coordinator, _ = self.make_coordinator(loaded_server, config)
        for _ in range(100):
            action = coordinator.step(0.1)
            loaded_server.tick(
                0.1,
                esd_charge_w=action.esd_charge_w,
                esd_discharge_w=action.esd_discharge_w,
                deep_sleep=action.deep_sleep,
            )
            assert loaded_server.rapl.domain("psys").last_power_w <= 80.0 + 1e-6


class TestIdleMode:
    def test_everything_suspended_and_sleeping(self, loaded_server):
        plan = AllocationPlan(mode=CoordinationMode.IDLE, p_cap_w=55.0)
        coordinator = Coordinator(loaded_server)
        coordinator.adopt(plan)
        action = coordinator.step(0.1)
        assert action.deep_sleep
        result = loaded_server.tick(0.1, deep_sleep=True)
        assert result.breakdown.wall_w == pytest.approx(50.0)
