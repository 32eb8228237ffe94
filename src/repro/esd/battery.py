"""Lead-Acid battery model: SoC dynamics under power limits and efficiency.

The model is the standard energy-reservoir abstraction used by the
datacenter energy-storage literature the paper builds on ([30, 31, 37, 38]):

* stored energy evolves as ``E += eta * P_charge * dt`` and
  ``E -= P_discharge * dt`` - the full round-trip loss is booked at charge
  time, which matches Eq. (5)'s placement of ``eta`` against the charging
  headroom term;
* charge and discharge power are bounded (Lead-Acid C-rates are modest - the
  defaults allow the paper's 20 W banking / 40 W boost regime comfortably);
* depth-of-discharge is bounded: Lead-Acid cells are not drained below a
  reserve floor, both for cycle life and because the UPS must retain backup
  charge (the paper notes the ESD is "used only under very stringent power
  budget" partly for this reason);
* throughput is tracked to report equivalent full cycles - supporting the
  paper's closing observation that this duty barely dents cycle life.

Electrochemical detail (Peukert effect, voltage sag, temperature) is out of
scope: Requirement R4 depends only on conservation, efficiency and power
limits. See DESIGN.md section 6.

Fault surface (see DESIGN.md "Fault model and degraded modes"): real UPS
strings fade (:meth:`LeadAcidBattery.apply_capacity_fade`), lose discharge
capability when cells age or run hot (:meth:`LeadAcidBattery.derate_discharge`),
and drop off the bus entirely during BMS resets
(:meth:`LeadAcidBattery.set_available`). While unavailable both admissible
powers are zero and charge/discharge are no-ops, so an ESD controller that
pre-clamps with the admissible queries degrades gracefully without special
cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import BatteryError, ConfigurationError
from repro.util.folds import HORIZON_MARGIN, _seq_add, _seq_add_final


@dataclass(frozen=True)
class BatteryStats:
    """Lifetime counters of a battery instance.

    Attributes:
        total_charged_j: Energy drawn from the wall into the battery
            (pre-efficiency, i.e. what the wall saw).
        total_stored_j: Energy actually banked (post-efficiency).
        total_discharged_j: Energy delivered from the battery.
        equivalent_cycles: Discharged energy over usable capacity.
    """

    total_charged_j: float
    total_stored_j: float
    total_discharged_j: float
    equivalent_cycles: float


class LeadAcidBattery:
    """An energy reservoir with efficiency, power limits and a DoD floor.

    Args:
        capacity_j: Nameplate capacity in joules. The paper's worked example
            (Fig. 5) banks 200 J over a 10 s window; a real server UPS holds
            hundreds of kilojoules - both work here.
        efficiency: Round-trip efficiency ``eta`` in ``(0, 1]``, booked at
            charge time. Lead-Acid at the paper's rates is ~0.70, which is
            what makes Eq. (5) yield the paper's 60-40 OFF-ON split at the
            80 W cap.
        max_charge_w / max_discharge_w: Power limits (C-rate proxies).
        reserve_fraction: Fraction of capacity never discharged (UPS backup
            reserve + Lead-Acid DoD floor).
        initial_soc: Starting state of charge in ``[reserve, 1]``.
    """

    def __init__(
        self,
        capacity_j: float,
        *,
        efficiency: float = 0.70,
        max_charge_w: float = 50.0,
        max_discharge_w: float = 60.0,
        reserve_fraction: float = 0.0,
        initial_soc: float | None = None,
    ) -> None:
        if capacity_j <= 0:
            raise ConfigurationError(f"capacity must be positive, got {capacity_j}")
        if not 0.0 < efficiency <= 1.0:
            raise ConfigurationError(f"efficiency must be in (0, 1], got {efficiency}")
        if max_charge_w <= 0 or max_discharge_w <= 0:
            raise ConfigurationError("power limits must be positive")
        if not 0.0 <= reserve_fraction < 1.0:
            raise ConfigurationError("reserve_fraction must be in [0, 1)")
        self._capacity_j = capacity_j
        self._efficiency = efficiency
        self._max_charge_w = max_charge_w
        self._max_discharge_w = max_discharge_w
        self._reserve_j = reserve_fraction * capacity_j
        soc = reserve_fraction if initial_soc is None else initial_soc
        if not reserve_fraction <= soc <= 1.0:
            raise ConfigurationError(
                f"initial_soc {soc} outside [{reserve_fraction}, 1.0]"
            )
        self._stored_j = soc * capacity_j
        self._total_charged_j = 0.0
        self._total_stored_j = 0.0
        self._total_discharged_j = 0.0
        self._nameplate_discharge_w = max_discharge_w
        self._available = True
        self._total_faded_j = 0.0

    # ------------------------------------------------------------ properties

    @property
    def capacity_j(self) -> float:
        return self._capacity_j

    @property
    def efficiency(self) -> float:
        return self._efficiency

    @property
    def max_charge_w(self) -> float:
        return self._max_charge_w

    @property
    def max_discharge_w(self) -> float:
        return self._max_discharge_w

    @property
    def stored_j(self) -> float:
        """Banked energy right now."""
        return self._stored_j

    @property
    def soc(self) -> float:
        """State of charge in ``[0, 1]``."""
        return self._stored_j / self._capacity_j

    @property
    def usable_j(self) -> float:
        """Energy available above the reserve floor."""
        return max(0.0, self._stored_j - self._reserve_j)

    @property
    def headroom_j(self) -> float:
        """Energy the battery can still absorb (post-efficiency)."""
        return max(0.0, self._capacity_j - self._stored_j)

    @property
    def available(self) -> bool:
        """Whether the battery is on the bus (``False`` during a BMS reset)."""
        return self._available

    @property
    def total_faded_j(self) -> float:
        """Stored energy lost to capacity fade (for conservation accounting)."""
        return self._total_faded_j

    @property
    def stats(self) -> BatteryStats:
        usable_capacity = self._capacity_j - self._reserve_j
        return BatteryStats(
            total_charged_j=self._total_charged_j,
            total_stored_j=self._total_stored_j,
            total_discharged_j=self._total_discharged_j,
            equivalent_cycles=(
                self._total_discharged_j / usable_capacity if usable_capacity > 0 else 0.0
            ),
        )

    # ------------------------------------------------------------ persistence

    def state_dict(self) -> dict:
        """Snapshot every mutable field for checkpointing.

        Captures fade (capacity and reserve shrink over a battery's life) and
        derating alongside the SoC and lifetime counters, so a restored
        battery is physically identical, not just equally charged.
        """
        return {
            "capacity_j": self._capacity_j,
            "efficiency": self._efficiency,
            "max_charge_w": self._max_charge_w,
            "max_discharge_w": self._max_discharge_w,
            "reserve_j": self._reserve_j,
            "stored_j": self._stored_j,
            "total_charged_j": self._total_charged_j,
            "total_stored_j": self._total_stored_j,
            "total_discharged_j": self._total_discharged_j,
            "nameplate_discharge_w": self._nameplate_discharge_w,
            "available": self._available,
            "total_faded_j": self._total_faded_j,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot exactly.

        Fields are assigned directly (no re-derivation from fractions) so the
        restored floats are bit-identical to the checkpointed ones.
        """
        self._capacity_j = float(state["capacity_j"])
        self._efficiency = float(state["efficiency"])
        self._max_charge_w = float(state["max_charge_w"])
        self._max_discharge_w = float(state["max_discharge_w"])
        self._reserve_j = float(state["reserve_j"])
        self._stored_j = float(state["stored_j"])
        self._total_charged_j = float(state["total_charged_j"])
        self._total_stored_j = float(state["total_stored_j"])
        self._total_discharged_j = float(state["total_discharged_j"])
        self._nameplate_discharge_w = float(state["nameplate_discharge_w"])
        self._available = bool(state["available"])
        self._total_faded_j = float(state["total_faded_j"])

    # ------------------------------------------------------------ fault model

    def set_available(self, available: bool) -> None:
        """Connect or disconnect the battery from the power bus.

        While disconnected the admissible powers are zero and
        :meth:`charge`/:meth:`discharge` are no-ops, modelling a transient
        BMS reset or contactor trip. State of charge is preserved.
        """
        self._available = available

    def derate_discharge(self, scale: float) -> None:
        """Scale the maximum discharge power to ``scale`` x nameplate.

        Models aged or hot cells that can no longer sustain the rated
        C-rate. ``scale=1.0`` restores the nameplate limit.
        """
        if not 0.0 < scale <= 1.0:
            raise ConfigurationError(f"derate scale must be in (0, 1], got {scale}")
        self._max_discharge_w = scale * self._nameplate_discharge_w

    def restore_discharge(self) -> None:
        """Undo any discharge derating."""
        self._max_discharge_w = self._nameplate_discharge_w

    def apply_capacity_fade(self, fraction_lost: float) -> None:
        """Permanently shrink capacity by ``fraction_lost`` of its current value.

        The reserve floor shrinks proportionally (it is a fraction of
        capacity). Stored energy above the new capacity is written off and
        booked in :attr:`total_faded_j` so conservation accounting still
        closes: ``stored == eta*charged - discharged - faded`` (relative to
        the initial charge).
        """
        if not 0.0 <= fraction_lost < 1.0:
            raise ConfigurationError(
                f"fraction_lost must be in [0, 1), got {fraction_lost}"
            )
        keep = 1.0 - fraction_lost
        self._capacity_j *= keep
        self._reserve_j *= keep
        if self._stored_j > self._capacity_j:
            self._total_faded_j += self._stored_j - self._capacity_j
            self._stored_j = self._capacity_j

    # ------------------------------------------------------------- operations

    def admissible_charge_w(self, requested_w: float) -> float:
        """Largest charge power ``<= requested_w`` the battery accepts now.

        Limited by the charge-power bound; a nearly full battery still
        accepts the full power for one tick (capacity clipping happens in
        :meth:`charge`, which returns what was actually banked).
        """
        if requested_w < 0:
            raise BatteryError(f"negative charge power {requested_w}")
        if not self._available:
            return 0.0
        return min(requested_w, self._max_charge_w)

    def admissible_discharge_w(self, requested_w: float, dt_s: float) -> float:
        """Largest discharge power ``<= requested_w`` sustainable for ``dt_s``.

        Limited by both the discharge-power bound and the usable energy.
        """
        if requested_w < 0:
            raise BatteryError(f"negative discharge power {requested_w}")
        if dt_s <= 0:
            raise BatteryError("dt_s must be positive")
        if not self._available:
            return 0.0
        energy_limited = self.usable_j / dt_s
        return min(requested_w, self._max_discharge_w, energy_limited)

    def charge(self, power_w: float, dt_s: float) -> float:
        """Charge at ``power_w`` (wall side) for ``dt_s``; returns the wall
        power actually drawn.

        The wall draw may be clipped when the battery fills mid-tick. Energy
        banked is ``eta * wall_draw * dt``.

        Raises:
            BatteryError: for a negative power or when ``power_w`` exceeds
                the charge-power limit (the controller must pre-clamp with
                :meth:`admissible_charge_w`; silently absorbing an illegal
                request would hide scheduling bugs).
        """
        if dt_s <= 0:
            raise BatteryError("dt_s must be positive")
        if power_w < 0:
            raise BatteryError(f"negative charge power {power_w}")
        if power_w > self._max_charge_w + 1e-9:
            raise BatteryError(
                f"charge power {power_w} W exceeds limit {self._max_charge_w} W"
            )
        if not self._available:
            return 0.0
        storable_j = min(self._efficiency * power_w * dt_s, self.headroom_j)
        if storable_j <= 0.0:
            return 0.0
        wall_j = storable_j / self._efficiency
        self._stored_j += storable_j
        self._total_charged_j += wall_j
        self._total_stored_j += storable_j
        return wall_j / dt_s

    def steady_charge(self, power_w: float, dt_s: float) -> tuple[str, float, float]:
        """:meth:`charge`'s wall draw and how many ticks, less the margin,
        it repeats unclipped; ``"battery-clip"`` if the next one clips."""
        storable_j = min(self._efficiency * power_w * dt_s, self.headroom_j)
        if storable_j <= 0.0:
            return "", 0.0, math.inf
        if storable_j != self._efficiency * power_w * dt_s:
            return "battery-clip", 0.0, 0.0
        ticks = math.floor(self.headroom_j / storable_j) - HORIZON_MARGIN
        return "", storable_j / self._efficiency / dt_s, ticks

    def fold_charge(self, power_w: float, dt_s: float, k: int) -> list[float]:
        """What ``k`` unclipped :meth:`charge` calls leave; returns each SoC."""
        storable_j = min(self._efficiency * power_w * dt_s, self.headroom_j)
        if storable_j <= 0.0:
            return [self.soc] * k
        stored = _seq_add(self._stored_j, storable_j, k)
        self._stored_j = stored[-1]
        self._total_charged_j = _seq_add_final(
            self._total_charged_j, storable_j / self._efficiency, k
        )
        self._total_stored_j = _seq_add_final(self._total_stored_j, storable_j, k)
        return [s / self._capacity_j for s in stored[1:]]

    def discharge(self, power_w: float, dt_s: float) -> float:
        """Discharge at ``power_w`` for ``dt_s``; returns the power delivered.

        Delivery may be clipped when the usable energy runs out mid-tick.

        Raises:
            BatteryError: for a negative power or when ``power_w`` exceeds
                the discharge-power limit.
        """
        if dt_s <= 0:
            raise BatteryError("dt_s must be positive")
        if power_w < 0:
            raise BatteryError(f"negative discharge power {power_w}")
        if power_w > self._max_discharge_w + 1e-9:
            raise BatteryError(
                f"discharge power {power_w} W exceeds limit {self._max_discharge_w} W"
            )
        if not self._available:
            return 0.0
        deliverable_j = min(power_w * dt_s, self.usable_j)
        if deliverable_j <= 0.0:
            return 0.0
        self._stored_j -= deliverable_j
        self._total_discharged_j += deliverable_j
        return deliverable_j / dt_s

    def steady_discharge(self, power_w: float, dt_s: float) -> tuple[str, float, float]:
        """As :meth:`steady_charge`, for :meth:`discharge`. Twice the margin:
        ``EsdController.can_boost`` also needs ``usable_j / dt`` above it."""
        deliverable_j = min(power_w * dt_s, self.usable_j)
        if deliverable_j != power_w * dt_s:
            return "battery-clip", 0.0, 0.0
        if deliverable_j <= 0.0:
            return "", 0.0, math.inf
        ticks = math.floor(self.usable_j / deliverable_j) - 2 * HORIZON_MARGIN
        return "", deliverable_j / dt_s, ticks

    def fold_discharge(self, power_w: float, dt_s: float, k: int) -> list[float]:
        """What ``k`` unclipped :meth:`discharge` calls leave; returns each SoC."""
        deliverable_j = min(power_w * dt_s, self.usable_j)
        if deliverable_j <= 0.0:
            return [self.soc] * k
        stored = _seq_add(self._stored_j, -deliverable_j, k)
        self._stored_j = stored[-1]
        self._total_discharged_j = _seq_add_final(
            self._total_discharged_j, deliverable_j, k
        )
        return [s / self._capacity_j for s in stored[1:]]
