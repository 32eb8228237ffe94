"""Accountant: message events (E1/E2), polling events (E3/E4), debouncing."""

import pytest

from repro.errors import ConfigurationError
from repro.core.accountant import DEVIATION_POLLS, Accountant
from repro.core.allocator import Allocation, AppAllocation
from repro.core.coordinator import AllocationPlan, CoordinationMode, TimeSlot
from repro.core.events import (
    ArrivalEvent,
    CapChangeEvent,
    DepartureEvent,
    PhaseChangeEvent,
)
from repro.server.config import KnobSetting
from repro.server.power_model import PowerBreakdown
from repro.server.server import SimulatedServer, TickResult


def breakdown(app_w):
    return PowerBreakdown(idle_w=50.0, cm_w=20.0, app_w=app_w)


def tick(time_s, app_w, completed=()):
    return TickResult(
        time_s=time_s,
        dt_s=0.1,
        breakdown=breakdown(app_w),
        progressed={},
        completed=tuple(completed),
    )


def space_plan(expected_w, cap=100.0):
    knob = KnobSetting(2.0, 6, 10.0)
    apps = {
        name: AppAllocation(
            app=name, excluded=False, knob=knob, power_w=watts, relative_perf=0.8
        )
        for name, watts in expected_w.items()
    }
    return AllocationPlan(
        mode=CoordinationMode.SPACE,
        p_cap_w=cap,
        allocation=Allocation(budget_w=30.0, apps=apps, objective=1.6),
        knobs={name: knob for name in expected_w},
    )


@pytest.fixture()
def accountant(server):
    return Accountant(server)


class TestMessages:
    def test_cap_change_logged(self, accountant):
        event = accountant.notify_cap_change(90.0)
        assert isinstance(event, CapChangeEvent)
        assert accountant.p_cap_w == 90.0
        assert accountant.event_log == [event]

    def test_invalid_cap_rejected(self, accountant):
        with pytest.raises(ConfigurationError):
            accountant.notify_cap_change(0.0)

    @pytest.mark.parametrize("cap", [float("nan"), float("inf"), -float("inf"), 0.0])
    def test_non_finite_or_non_positive_cap_rejected(self, accountant, cap):
        with pytest.raises(ConfigurationError, match="cap must be finite and positive"):
            accountant.notify_cap_change(cap)
        assert accountant.event_log == []

    def test_arrival_logged(self, accountant, kmeans):
        event = accountant.notify_arrival(kmeans)
        assert isinstance(event, ArrivalEvent)
        assert event.profile is kmeans


class TestDeparture:
    def test_completion_raises_e3(self, accountant):
        events = accountant.poll(tick(1.0, {}, completed=["kmeans"]))
        assert len(events) == 1
        assert isinstance(events[0], DepartureEvent)
        assert events[0].app == "kmeans"
        assert events[0].completed

    def test_multiple_completions(self, accountant):
        events = accountant.poll(tick(1.0, {}, completed=["a", "b"]))
        assert [e.app for e in events] == ["a", "b"]


class TestPhaseChange:
    def test_sustained_deviation_raises_e4(self, accountant):
        accountant.adopt_plan(space_plan({"kmeans": 15.0}))
        events = []
        for i in range(DEVIATION_POLLS):
            events += accountant.poll(tick(i * 0.1, {"kmeans": 22.0}))
        assert len(events) == 1
        assert isinstance(events[0], PhaseChangeEvent)
        assert events[0].observed_power_w == 22.0
        assert events[0].allocated_power_w == 15.0

    def test_transient_deviation_debounced(self, accountant):
        accountant.adopt_plan(space_plan({"kmeans": 15.0}))
        events = []
        for i in range(DEVIATION_POLLS - 1):
            events += accountant.poll(tick(i * 0.1, {"kmeans": 22.0}))
        events += accountant.poll(tick(1.0, {"kmeans": 15.0}))  # resets
        for i in range(DEVIATION_POLLS - 1):
            events += accountant.poll(tick(1.1 + i * 0.1, {"kmeans": 22.0}))
        assert events == []

    def test_small_deviation_ignored(self, accountant):
        accountant.adopt_plan(space_plan({"kmeans": 15.0}))
        events = []
        for i in range(10):
            events += accountant.poll(tick(i * 0.1, {"kmeans": 16.5}))
        assert events == []

    def test_one_e4_per_plan_epoch(self, accountant):
        accountant.adopt_plan(space_plan({"kmeans": 15.0}))
        events = []
        for i in range(10):
            events += accountant.poll(tick(i * 0.1, {"kmeans": 25.0}))
        assert len(events) == 1  # suppressed until re-allocation

    def test_new_plan_resets_suppression(self, accountant):
        accountant.adopt_plan(space_plan({"kmeans": 15.0}))
        for i in range(5):
            accountant.poll(tick(i * 0.1, {"kmeans": 25.0}))
        accountant.adopt_plan(space_plan({"kmeans": 15.0}))
        events = []
        for i in range(5):
            events += accountant.poll(tick(1.0 + i * 0.1, {"kmeans": 25.0}))
        assert len(events) == 1

    def test_no_e4_in_time_mode(self, accountant, config):
        """Duty-cycled power swings are expected, not phase changes."""
        knob = config.max_knob
        plan = AllocationPlan(
            mode=CoordinationMode.TIME,
            p_cap_w=80.0,
            allocation=Allocation(budget_w=10.0, apps={}, objective=0.0),
            slots=(TimeSlot(apps=("kmeans",), duration_s=1.0, knobs={"kmeans": knob}),),
        )
        accountant.adopt_plan(plan)
        events = []
        for i in range(10):
            events += accountant.poll(tick(i * 0.1, {"kmeans": 20.0 * (i % 2)}))
        assert events == []

    def test_excluded_apps_not_monitored(self, accountant, config):
        knob = config.max_knob
        apps = {
            "kmeans": AppAllocation(
                app="kmeans", excluded=True, knob=knob, power_w=0.0, relative_perf=0.0
            )
        }
        plan = AllocationPlan(
            mode=CoordinationMode.SPACE,
            p_cap_w=100.0,
            allocation=Allocation(budget_w=30.0, apps=apps, objective=0.0),
            knobs={},
        )
        accountant.adopt_plan(plan)
        events = []
        for i in range(5):
            events += accountant.poll(tick(i * 0.1, {"kmeans": 25.0}))
        assert events == []
