"""Coordinator: executing an allocation in space and/or time (R3 + R4).

The :class:`~repro.core.allocator.PowerAllocator` decides *how much* power
each application gets; the Coordinator decides *when* each application draws
it so the server's instantaneous wall power never exceeds the cap:

* **SPACE** (R3a) - every application received a runnable budget: all run
  simultaneously at their allocated knobs. Preferred because private-cache
  state stays warm.
* **TIME** (R3b) - the budget cannot host everyone at once: applications
  rotate through exclusive slots; whoever is ON may use (up to) the whole
  dynamic budget at its slot knob; the others are suspended (and pay the
  private-cache refill penalty on resume).
* **ESD** (R4) - with energy storage, all applications share consolidated
  OFF (package deep sleep, battery banks the cap headroom) and ON (all run,
  battery covers the overshoot) phases per Eq. (5), amortizing ``P_cm``.
* **IDLE** - the cap cannot host even chip-maintenance power and no ESD is
  available: everything is suspended and the package sleeps.

The Coordinator is deliberately mechanical: it executes an
:class:`AllocationPlan` produced by a policy, tick by tick, and owns nothing
about *why* the plan looks the way it does.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, SimulationError
from repro.core.allocator import Allocation
from repro.esd.controller import DutyCycle, EsdController, Phase
from repro.observability.trace import NULL_TRACE_BUS, TraceBus
from repro.server.config import KnobSetting
from repro.server.server import SimulatedServer
from repro.util.folds import HORIZON_MARGIN, _seq_add_final


class CoordinationMode(enum.Enum):
    """How the plan multiplexes power (see module docstring)."""

    SPACE = "space"
    TIME = "time"
    ESD = "esd"
    IDLE = "idle"


@dataclass(frozen=True)
class TimeSlot:
    """One slot of a TIME-mode rotation.

    Attributes:
        apps: Applications executing during this slot (empty = idle slot).
        duration_s: Slot length.
        knobs: Knob settings in force during the slot, per app.
    """

    apps: tuple[str, ...]
    duration_s: float
    knobs: dict[str, KnobSetting] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ConfigurationError("slot duration must be positive")
        missing = set(self.apps) - set(self.knobs)
        if missing:
            raise ConfigurationError(f"slot lacks knobs for {sorted(missing)}")


@dataclass(frozen=True)
class AllocationPlan:
    """A policy's complete decision for one allocation epoch.

    Attributes:
        mode: The coordination mode.
        p_cap_w: The server cap the plan was built for.
        allocation: The power apportioning behind the plan (kept for
            reporting - Fig. 8b's splits come from here).
        knobs: Per-app knobs for SPACE mode and for the ESD ON phase.
        slots: The TIME-mode rotation (cyclic); empty otherwise.
        duty_cycle: The Eq. (5) schedule for ESD mode; ``None`` otherwise.
    """

    mode: CoordinationMode
    p_cap_w: float
    allocation: Allocation | None = None
    knobs: dict[str, KnobSetting] = field(default_factory=dict)
    slots: tuple[TimeSlot, ...] = ()
    duty_cycle: DutyCycle | None = None

    def __post_init__(self) -> None:
        if self.mode is CoordinationMode.TIME and not self.slots:
            raise ConfigurationError("TIME mode requires at least one slot")
        if self.mode is CoordinationMode.ESD and self.duty_cycle is None:
            raise ConfigurationError("ESD mode requires a duty cycle")

    def to_dict(self) -> dict:
        """JSON-safe form, used by checkpoints."""
        return {
            "mode": self.mode.value,
            "p_cap_w": self.p_cap_w,
            "allocation": None if self.allocation is None else self.allocation.to_dict(),
            "knobs": {name: knob.to_json() for name, knob in self.knobs.items()},
            "slots": [
                {
                    "apps": list(slot.apps),
                    "duration_s": slot.duration_s,
                    "knobs": {n: k.to_json() for n, k in slot.knobs.items()},
                }
                for slot in self.slots
            ],
            "duty_cycle": None if self.duty_cycle is None else self.duty_cycle.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AllocationPlan":
        """Inverse of :meth:`to_dict`."""
        allocation = data["allocation"]
        cycle = data["duty_cycle"]
        return cls(
            mode=CoordinationMode(data["mode"]),
            p_cap_w=float(data["p_cap_w"]),
            allocation=None if allocation is None else Allocation.from_dict(allocation),
            knobs={
                name: KnobSetting.from_json(raw)
                for name, raw in data["knobs"].items()
            },
            slots=tuple(
                TimeSlot(
                    apps=tuple(slot["apps"]),
                    duration_s=float(slot["duration_s"]),
                    knobs={
                        n: KnobSetting.from_json(k) for n, k in slot["knobs"].items()
                    },
                )
                for slot in data["slots"]
            ),
            duty_cycle=None if cycle is None else DutyCycle.from_dict(cycle),
        )


@dataclass(frozen=True)
class CoordinatorAction:
    """What the engine should be told for this tick.

    Attributes:
        esd_charge_w / esd_discharge_w: Battery flows already applied to the
            battery; forwarded into the power equation.
        deep_sleep: Whether the package should be in PC6 this tick.
    """

    esd_charge_w: float = 0.0
    esd_discharge_w: float = 0.0
    deep_sleep: bool = False


class Coordinator:
    """Executes :class:`AllocationPlan` objects against a server.

    Args:
        server: The server whose knobs/suspension the coordinator drives.
        esd_controller: Present only when the active plan uses the battery.
    """

    def __init__(self, server: SimulatedServer) -> None:
        self._server = server
        self._plan: AllocationPlan | None = None
        self._esd: EsdController | None = None
        self._slot_index = 0
        self._slot_elapsed_s = 0.0
        self._esd_on = False
        #: Trace sink for actuation/suspension events; the mediator re-points
        #: this when a bus is attached. Not serialized.
        self.trace_bus: TraceBus = NULL_TRACE_BUS

    @property
    def plan(self) -> AllocationPlan | None:
        return self._plan

    @property
    def esd_controller(self) -> EsdController | None:
        return self._esd

    def adopt(self, plan: AllocationPlan, *, esd_controller: EsdController | None = None) -> None:
        """Switch to a new plan and actuate its initial state.

        Raises:
            ConfigurationError: for an ESD plan without a controller.
        """
        if plan.mode is CoordinationMode.ESD and esd_controller is None:
            raise ConfigurationError("an ESD plan needs an EsdController")
        self._plan = plan
        self._esd = esd_controller
        self._slot_index = 0
        self._slot_elapsed_s = 0.0
        self._esd_on = False
        if plan.mode is CoordinationMode.SPACE:
            self._actuate_space(plan)
        elif plan.mode is CoordinationMode.TIME:
            self._actuate_slot(plan.slots[0])
        elif plan.mode is CoordinationMode.ESD:
            self._suspend_all()
        else:  # IDLE
            self._suspend_all()

    def step(self, dt_s: float) -> CoordinatorAction:
        """Advance the plan by one tick; returns the engine instructions.

        Raises:
            SimulationError: when no plan has been adopted.
        """
        if self._plan is None:
            raise SimulationError("coordinator has no plan; call adopt() first")
        mode = self._plan.mode
        if mode is CoordinationMode.SPACE:
            return CoordinatorAction()
        if mode is CoordinationMode.TIME:
            self._advance_rotation(dt_s)
            return CoordinatorAction()
        if mode is CoordinationMode.ESD:
            return self._step_esd(dt_s)
        # IDLE: stay suspended; deep-sleep to fit under a sub-P_cm cap.
        return CoordinatorAction(deep_sleep=True)

    def steady_step(self, dt_s: float) -> tuple[str, CoordinatorAction, float]:
        """What :meth:`step` repeats while the plan runs steady, and for how
        many ticks, less the margin; or why the next step is not steady."""
        assert self._plan is not None
        mode, esd = self._plan.mode, self._esd
        deep = mode is CoordinationMode.IDLE
        if mode is CoordinationMode.ESD:
            assert esd is not None
            deep = esd.phase is Phase.OFF
            if not esd.battery.available:
                return "battery-unavailable", CoordinatorAction(), 0.0
            if self._esd_on is deep or (deep and esd.cycle.off_s <= 0):
                return "esd-edge", CoordinatorAction(), 0.0
        if deep and self._server.active_applications():
            idle = mode is CoordinationMode.IDLE
            return "idle-active-apps" if idle else "esd-active-in-off", CoordinatorAction(), 0.0
        if self._server.sleep.in_deep_sleep is not deep:
            return "sleep-state", CoordinatorAction(), 0.0
        if mode is CoordinationMode.TIME:
            # Between slot edges the rotation only advances its cursor.
            slot = self._plan.slots[self._slot_index]
            edge = math.floor((slot.duration_s - self._slot_elapsed_s) / dt_s)
            return "", CoordinatorAction(), edge - HORIZON_MARGIN
        if mode is not CoordinationMode.ESD:
            return "", CoordinatorAction(deep_sleep=deep), math.inf
        if deep:
            reason, charge_w, ticks = esd.steady_bank(dt_s)
            return reason, CoordinatorAction(esd_charge_w=charge_w, deep_sleep=True), ticks
        reason, discharge_w, ticks = esd.steady_boost(dt_s, self._esd_required_w(dt_s))
        return reason, CoordinatorAction(esd_discharge_w=discharge_w), ticks

    def fold_steps(self, dt_s: float, k: int) -> list[float] | None:
        """What ``k`` steady :meth:`step` calls leave; returns each SoC
        while the battery flows."""
        assert self._plan is not None
        if self._plan.mode is CoordinationMode.TIME:
            self._slot_elapsed_s = _seq_add_final(self._slot_elapsed_s, dt_s, k)
        elif self._plan.mode is CoordinationMode.ESD:
            assert self._esd is not None
            if self._esd.phase is Phase.OFF:
                return self._esd.fold_bank(dt_s, k)
            return self._esd.fold_boost(dt_s, k, self._esd_required_w(dt_s))
        return None

    # ---------------------------------------------------------- persistence

    def state_dict(self) -> dict:
        """Snapshot the adopted plan and execution cursor.

        The ESD controller is snapshotted by the mediator alongside its
        battery; only its presence is recorded here.
        """
        return {
            "plan": None if self._plan is None else self._plan.to_dict(),
            "has_esd": self._esd is not None,
            "slot_index": self._slot_index,
            "slot_elapsed_s": self._slot_elapsed_s,
            "esd_on": self._esd_on,
        }

    def load_state_dict(
        self, state: dict, *, esd_controller: EsdController | None
    ) -> None:
        """Restore a :meth:`state_dict` snapshot exactly.

        The plan is installed *without* :meth:`adopt`: adoption actuates
        knobs and suspends applications, but the knob controller's own
        snapshot already holds the exact actuation state - re-actuating
        would fire fault hooks and reset the rotation cursor.

        Args:
            state: The snapshot.
            esd_controller: The restored controller when the snapshot had
                one; its phase machine is restored separately.
        """
        plan = state["plan"]
        self._plan = None if plan is None else AllocationPlan.from_dict(plan)
        self._esd = esd_controller if state["has_esd"] else None
        self._slot_index = int(state["slot_index"])
        self._slot_elapsed_s = float(state["slot_elapsed_s"])
        self._esd_on = bool(state["esd_on"])

    # ------------------------------------------------------------- emergency

    def emergency_throttle(self, cap_w: float) -> tuple[list[str], list[str]]:
        """Force the server under ``cap_w`` within one tick (breach response).

        Every running application is dropped to the floor knob; the floors
        themselves are budget-checked against the cap's dynamic headroom
        (under a stringent cap even two floored apps can exceed it, so the
        ones that do not fit are suspended - cheapest floors kept first to
        preserve the most progress). A floor write that fails verification
        (the breach may *be* an actuation fault) escalates straight to
        suspension: ``SIGSTOP`` bypasses the RAPL path, so the power comes
        down regardless of actuator health.

        The adopted plan is left in place - the mediator re-plans once the
        breach clears; this method only guarantees the next tick's wall
        power is defensible.

        Returns:
            ``(floored, suspended)`` application name lists.
        """
        cfg = self._server.config
        floor = cfg.min_knob
        budget_w = cfg.dynamic_budget_w(cap_w)
        running = [
            name
            for name in self._managed_apps()
            if not self._server.knobs.is_suspended(name)
        ]
        costed = sorted(
            (
                (
                    self._server.power_model.app_power_w(
                        self._server.handle_of(name).profile, floor
                    ),
                    name,
                )
                for name in running
            ),
        )
        floored: list[str] = []
        suspended: list[str] = []
        spent_w = 0.0
        for cost_w, name in costed:
            if spent_w + cost_w <= budget_w + 1e-9 and self._server.knobs.set_knob(
                name, floor
            ):
                spent_w += cost_w
                floored.append(name)
            else:
                self._server.knobs.clear_failed_write(name)
                self._suspend(name)
                suspended.append(name)
        self.trace_bus.emit(
            "emergency-throttle",
            {"cap_w": cap_w, "floored": floored, "suspended": suspended},
        )
        return floored, suspended

    # ------------------------------------------------------------ internals

    def _managed_apps(self) -> list[str]:
        """Admitted, not-yet-completed applications."""
        return [
            name
            for name in self._server.applications()
            if not self._server.handle_of(name).completed
        ]

    def _suspend(self, name: str) -> None:
        """Suspend, tracing only the running -> suspended transition."""
        if not self._server.knobs.is_suspended(name):
            self.trace_bus.emit("suspend", {"app": name})
        self._server.suspend(name)

    def _resume(self, name: str) -> None:
        """Resume, tracing only the suspended -> running transition."""
        if self._server.knobs.is_suspended(name):
            self.trace_bus.emit("resume", {"app": name})
        self._server.resume(name)

    def _actuate_space(self, plan: AllocationPlan) -> None:
        for name in self._managed_apps():
            knob = plan.knobs.get(name)
            if knob is None:
                self._suspend(name)
            else:
                budget = None
                if plan.allocation is not None and name in plan.allocation.apps:
                    budget = plan.allocation.apps[name].power_w
                self._actuate_verified(name, knob, budget)

    def _actuate_slot(self, slot: TimeSlot) -> None:
        running = set(slot.apps)
        budget = self._server.config.dynamic_budget_w(
            self._plan.p_cap_w if self._plan is not None else 0.0
        )
        for name in self._managed_apps():
            if name in running:
                self._actuate_verified(name, slot.knobs[name], budget)
            else:
                self._suspend(name)

    def _actuate_verified(
        self, name: str, knob: KnobSetting, budget_w: float | None
    ) -> bool:
        """Write a knob and resume the app only when the result is affordable.

        A verified write always resumes. When the write fails verification
        (actuation fault), the app is resumed only if the setting it *reads
        back at* draws no more than its budget (or than the planned knob,
        when no explicit budget applies) - otherwise it stays suspended and
        the retry machinery re-drives the write. This is what prevents a
        stuck-hot actuator from dragging the wall over the cap every time a
        plan is adopted.
        """
        verified = self._server.knobs.set_knob(name, knob)
        if verified:
            self.trace_bus.emit(
                "knob-actuation",
                {"app": name, "knob": knob.to_json(), "verified": True, "resumed": True},
            )
            self._resume(name)
            return True
        profile = self._server.handle_of(name).profile
        observed_cost = self._server.power_model.app_power_w(
            profile, self._server.knobs.readback(name)
        )
        limit = (
            budget_w
            if budget_w is not None
            else self._server.power_model.app_power_w(profile, knob)
        )
        resumed = observed_cost <= limit + 1e-9
        self.trace_bus.emit(
            "knob-actuation",
            {
                "app": name,
                "knob": knob.to_json(),
                "readback": self._server.knobs.readback(name).to_json(),
                "verified": False,
                "resumed": resumed,
            },
        )
        if resumed:
            self._resume(name)
        else:
            self._suspend(name)
        return False

    def _suspend_all(self) -> None:
        for name in self._managed_apps():
            self._suspend(name)

    def _advance_rotation(self, dt_s: float) -> None:
        assert self._plan is not None
        slots = self._plan.slots
        self._slot_elapsed_s += dt_s
        advanced = False
        # A long tick may skip whole slots; loop until inside the current one.
        while self._slot_elapsed_s >= slots[self._slot_index].duration_s - 1e-12:
            self._slot_elapsed_s -= slots[self._slot_index].duration_s
            self._slot_index = (self._slot_index + 1) % len(slots)
            advanced = True
        if advanced:
            self._actuate_slot(slots[self._slot_index])

    def _esd_required_w(self, dt_s: float) -> float:
        """The *measured* overshoot an ON tick would incur: true served
        power of the plan's ON set over the cap."""
        assert self._plan is not None
        running = {}
        for name in self._managed_apps():
            knob = self._plan.knobs.get(name)
            if knob is not None:
                running[name] = (self._server.handle_of(name).profile, knob)
        served = self._server.power_model.server_breakdown(running).served_w
        return max(0.0, served - self._plan.p_cap_w)

    def _step_esd(self, dt_s: float) -> CoordinatorAction:
        assert self._plan is not None and self._esd is not None
        phase = self._esd.begin_tick(dt_s)
        required_w = self._esd_required_w(dt_s)
        if phase is Phase.ON and self._esd.can_boost(dt_s, required_w=required_w):
            if not self._esd_on:
                for name in self._managed_apps():
                    knob = self._plan.knobs.get(name)
                    if knob is not None:
                        # The boost budget was sized from the planned knobs,
                        # so only a verified-or-no-hotter setting may run.
                        self._actuate_verified(name, knob, None)
                self._esd_on = True
            discharge_w = self._esd.boost(dt_s, required_w=required_w)
            return CoordinatorAction(esd_discharge_w=discharge_w)
        # OFF phase, or a battery exhausted mid-ON: everyone sleeps and the
        # cap headroom banks into the battery.
        if phase is Phase.ON:
            self._esd.abort_on_phase()
        self._suspend_all()
        self._esd_on = False
        charge_w = self._esd.bank(dt_s)
        return CoordinatorAction(esd_charge_w=charge_w, deep_sleep=True)
