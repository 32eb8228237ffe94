"""ESD coordination: Eq. (5) duty cycles and per-tick power scheduling.

Requirement R4: when the power cap is too stringent for space coordination
(and sometimes even for alternate duty cycling), all applications go OFF
together - the package deep-sleeps and the cap headroom above idle charges
the battery - then all come ON together at full power, the battery covering
the overshoot. The OFF:ON ratio follows the paper's Eq. (5)::

    (d2 - d1) / (d3 - d2) = (P_idle + P_cm + sum(P_X) - P_cap)
                            / (eta * (P_cap - P_idle))

The numerator is the per-second battery energy the ON phase spends; the
denominator is the per-second energy the OFF phase banks (charging headroom
times efficiency). Equal energies per cycle make the schedule sustainable
indefinitely - the battery SoC returns to its starting point each period.

:class:`EsdController` executes that cycle tick by tick under a coordinator:
each tick the coordinator first asks :meth:`EsdController.begin_tick` which
phase applies (the controller refuses to enter ON until the battery can
actually sustain a full ON phase - cap adherence is a hard invariant, so a
dry battery extends the OFF phase rather than overshooting), then applies
the corresponding battery flow with :meth:`EsdController.bank` or
:meth:`EsdController.boost`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.errors import ConfigurationError, PowerBudgetError
from repro.esd.battery import LeadAcidBattery
from repro.util.folds import HORIZON_MARGIN, _seq_add_final


@dataclass(frozen=True)
class DutyCycle:
    """A consolidated OFF/ON schedule produced by Eq. (5).

    Attributes:
        off_s: Collective OFF (charging, deep sleep) duration per period.
        on_s: Collective ON (discharging, all apps at allocation) duration.
        charge_w: Wall power flowing into the battery during OFF.
        discharge_w: Battery power covering the overshoot during ON.
    """

    off_s: float
    on_s: float
    charge_w: float
    discharge_w: float

    @property
    def period_s(self) -> float:
        return self.off_s + self.on_s

    @property
    def on_fraction(self) -> float:
        """Fraction of wall-clock time the applications execute."""
        return self.on_s / self.period_s if self.period_s > 0 else 0.0

    def to_dict(self) -> dict:
        """JSON form, used by checkpoints."""
        return {
            "off_s": self.off_s,
            "on_s": self.on_s,
            "charge_w": self.charge_w,
            "discharge_w": self.discharge_w,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DutyCycle":
        """Inverse of :meth:`to_dict`."""
        return cls(
            off_s=float(data["off_s"]),
            on_s=float(data["on_s"]),
            charge_w=float(data["charge_w"]),
            discharge_w=float(data["discharge_w"]),
        )


class Phase(enum.Enum):
    """Where the controller currently is within the duty cycle."""

    OFF = "off"
    ON = "on"


def compute_duty_cycle(
    *,
    p_idle_w: float,
    p_cm_w: float,
    sum_app_w: float,
    p_cap_w: float,
    efficiency: float,
    period_s: float,
) -> DutyCycle:
    """Solve Eq. (5) for a sustainable consolidated duty cycle.

    Args:
        p_idle_w: Server idle power.
        p_cm_w: Chip-maintenance power (paid once during ON, zero during OFF
            thanks to PC6).
        sum_app_w: Total application power during ON (``sum P_X``).
        p_cap_w: The server power cap.
        efficiency: Battery round-trip efficiency ``eta``.
        period_s: Total cycle length ``off_s + on_s``.

    Returns:
        The schedule; when the ON draw already fits under the cap the OFF
        phase is zero (no ESD needed).

    Raises:
        PowerBudgetError: when ``p_cap_w <= p_idle_w`` (no charging headroom
            exists, so no duty cycle can sustain execution).
        ConfigurationError: on non-physical arguments.
    """
    if period_s <= 0:
        raise ConfigurationError("period_s must be positive")
    if not 0.0 < efficiency <= 1.0:
        raise ConfigurationError(f"efficiency must be in (0, 1], got {efficiency}")
    if min(p_idle_w, p_cm_w, sum_app_w) < 0:
        raise ConfigurationError("power terms must be non-negative")
    on_draw_w = p_idle_w + p_cm_w + sum_app_w
    overshoot_w = on_draw_w - p_cap_w
    if overshoot_w <= 0.0:
        # The cap already accommodates everyone: run continuously.
        return DutyCycle(off_s=0.0, on_s=period_s, charge_w=0.0, discharge_w=0.0)
    headroom_w = p_cap_w - p_idle_w
    if headroom_w <= 0.0:
        raise PowerBudgetError(
            f"cap {p_cap_w} W leaves no charging headroom above idle "
            f"{p_idle_w} W; even the ESD cannot mediate this struggle"
        )
    ratio = overshoot_w / (efficiency * headroom_w)  # Eq. (5)
    on_s = period_s / (1.0 + ratio)
    off_s = period_s - on_s
    return DutyCycle(
        off_s=off_s,
        on_s=on_s,
        charge_w=headroom_w,
        discharge_w=overshoot_w,
    )


class EsdController:
    """Executes a :class:`DutyCycle` against a physical battery.

    Per-tick protocol (driven by the coordinator):

    1. :meth:`begin_tick` - advances the phase machine and returns the phase
       that applies to this tick. The OFF -> ON transition additionally
       requires the battery to hold (nearly) a full ON phase of energy, so a
       cold start or a transient shortfall *extends* OFF instead of letting
       the server overshoot the cap mid-phase.
    2. :meth:`bank` (OFF) or :meth:`boost` (ON) - applies the battery flow
       for the tick and returns the realized wall/discharge power.

    Args:
        battery: The energy-storage device.
        cycle: The schedule to execute.
    """

    #: Fraction of a full ON phase's energy required before entering ON.
    _ON_ENERGY_MARGIN = 0.999

    def __init__(self, battery: LeadAcidBattery, cycle: DutyCycle) -> None:
        if cycle.period_s <= 0:
            raise ConfigurationError("duty cycle must have a positive period")
        self._battery = battery
        self._cycle = cycle
        self._phase = Phase.OFF if cycle.off_s > 0 else Phase.ON
        self._phase_elapsed_s = 0.0

    @property
    def battery(self) -> LeadAcidBattery:
        return self._battery

    @property
    def cycle(self) -> DutyCycle:
        return self._cycle

    @property
    def phase(self) -> Phase:
        return self._phase

    @property
    def in_on_phase(self) -> bool:
        """``True`` while applications should be executing."""
        return self._phase is Phase.ON

    def state_dict(self) -> dict:
        """Snapshot the schedule and phase machine for checkpointing."""
        return {
            "cycle": self._cycle.to_dict(),
            "phase": self._phase.value,
            "phase_elapsed_s": self._phase_elapsed_s,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot exactly.

        The phase is written directly rather than by installing a fresh
        cycle, which would restart the machine in OFF regardless of where
        the checkpointed run actually was within its period.
        """
        self._cycle = DutyCycle.from_dict(state["cycle"])
        self._phase = Phase(state["phase"])
        self._phase_elapsed_s = float(state["phase_elapsed_s"])

    def begin_tick(self, dt_s: float) -> Phase:
        """Advance the phase machine; returns the phase for this tick.

        Raises:
            ConfigurationError: for a non-positive tick.
        """
        if dt_s <= 0:
            raise ConfigurationError("dt_s must be positive")
        if self._cycle.off_s <= 0:
            self._phase = Phase.ON
            return self._phase
        if self._phase is Phase.OFF and self._phase_elapsed_s >= self._cycle.off_s:
            if self._on_phase_energy_available():
                self._phase = Phase.ON
                self._phase_elapsed_s = 0.0
            # else: stay OFF - keep banking until ON is sustainable.
        elif self._phase is Phase.ON and self._phase_elapsed_s >= self._cycle.on_s:
            self._phase = Phase.OFF
            self._phase_elapsed_s = 0.0
        return self._phase

    def bank(self, dt_s: float) -> float:
        """OFF-phase tick: charge the battery; returns wall power drawn.

        Raises:
            ConfigurationError: when called during the ON phase (the
                coordinator's phases and the controller's must agree).
        """
        if self._phase is not Phase.OFF:
            raise ConfigurationError("bank() called outside the OFF phase")
        admissible = self._battery.admissible_charge_w(self._cycle.charge_w)
        drawn = self._battery.charge(admissible, dt_s)
        self._phase_elapsed_s += dt_s
        return drawn

    def steady_bank(self, dt_s: float) -> tuple[str, float, float]:
        """:meth:`bank`'s wall draw and its ticks before the phase edge or a
        full battery, less the margin; or why the next one is not steady."""
        admissible = self._battery.admissible_charge_w(self._cycle.charge_w)
        reason, drawn_w, ticks = self._battery.steady_charge(admissible, dt_s)
        edge = math.floor((self._cycle.off_s - self._phase_elapsed_s) / dt_s)
        return reason, drawn_w, min(ticks, edge - HORIZON_MARGIN)

    def fold_bank(self, dt_s: float, k: int) -> list[float]:
        """What ``k`` steady :meth:`bank` calls leave; returns each SoC."""
        self._phase_elapsed_s = _seq_add_final(self._phase_elapsed_s, dt_s, k)
        admissible = self._battery.admissible_charge_w(self._cycle.charge_w)
        return self._battery.fold_charge(admissible, dt_s, k)

    def boost(self, dt_s: float, *, required_w: float | None = None) -> float:
        """ON-phase tick: discharge to cover the overshoot; returns the
        power actually delivered.

        Args:
            dt_s: Tick duration.
            required_w: The *measured* overshoot to cover this tick; the
                schedule's nominal ``discharge_w`` applies when omitted.
                (The nominal value came from power estimates; covering the
                measured draw is what keeps the wall within the cap when
                estimates err.)

        Raises:
            ConfigurationError: when called during the OFF phase.
        """
        if self._phase is not Phase.ON:
            raise ConfigurationError("boost() called outside the ON phase")
        target = self._cycle.discharge_w if required_w is None else max(0.0, required_w)
        admissible = self._battery.admissible_discharge_w(target, dt_s)
        delivered = self._battery.discharge(admissible, dt_s)
        self._phase_elapsed_s += dt_s
        return delivered

    def steady_boost(self, dt_s: float, required_w: float) -> tuple[str, float, float]:
        """As :meth:`steady_bank`, for :meth:`boost` of ``required_w``."""
        ticks = math.inf
        if self._cycle.off_s > 0:
            edge = math.floor((self._cycle.on_s - self._phase_elapsed_s) / dt_s)
            ticks = edge - HORIZON_MARGIN
        if required_w > self._battery.max_discharge_w:
            return "esd-underpowered", 0.0, 0.0
        reason, delivered_w, battery_ticks = self._battery.steady_discharge(required_w, dt_s)
        return reason, delivered_w, min(ticks, battery_ticks)

    def fold_boost(self, dt_s: float, k: int, required_w: float) -> list[float]:
        """What ``k`` steady :meth:`boost` calls leave; returns each SoC."""
        self._phase_elapsed_s = _seq_add_final(self._phase_elapsed_s, dt_s, k)
        return self._battery.fold_discharge(required_w, dt_s, k)

    def abort_on_phase(self) -> None:
        """Cut the ON phase short (battery exhausted mid-phase) and return
        to OFF so banking can resume. No-op outside the ON phase."""
        if self._phase is Phase.ON and self._cycle.off_s > 0:
            self._phase = Phase.OFF
            self._phase_elapsed_s = 0.0

    def can_boost(self, dt_s: float, *, required_w: float | None = None) -> bool:
        """Can the battery cover the *full* overshoot for one tick?

        Exact coverage is required - a partial boost would push the wall
        over the cap, and cap adherence is a hard invariant. A battery one
        tick short of energy aborts the ON phase instead.
        """
        target = self._cycle.discharge_w if required_w is None else max(0.0, required_w)
        if target <= 0:
            return True
        available = self._battery.admissible_discharge_w(target, dt_s)
        return available >= target - 1e-9

    def _on_phase_energy_available(self) -> bool:
        """Does the battery hold (nearly) a full ON phase of energy?"""
        needed_j = self._cycle.discharge_w * self._cycle.on_s * self._ON_ENERGY_MARGIN
        return self._battery.usable_j >= needed_j or needed_j <= 0.0
