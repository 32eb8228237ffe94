"""Component power model: watts as a function of the (f, n, m) knobs.

Server power decomposes exactly as in the paper's Section II-A and Eq. (2):

``P_server = P_idle + P_cm + sum_X P_X + ESD_charge - ESD_discharge``

* ``P_idle`` (50 W) is always spent - fan, disks, DRAM self-refresh, LLC
  leakage - whether or not anything runs.
* ``P_cm`` (20 W) is the chip-maintenance power of the uncore (LLC, on-chip
  network, memory controllers, QPI). It switches on when *any* application
  runs and is shared - this is the non-convexity the ESD coordination of
  Requirement R4 exploits: running two apps together pays ``P_cm`` once.
* ``P_X`` is each application's attributable dynamic power, itself the sum of

  - an **activation floor** (``p_app_floor_w``): private caches out of sleep,
    core wake overhead for the app's core group;
  - **core dynamic power**: ``n * p_core_peak * (f / f_max) ** alpha`` scaled
    by the profile's activity factor and by achieved core utilization (cores
    stalled on DRAM clock-gate);
  - **DRAM power**: the DIMM's background power plus watts proportional to
    the traffic actually generated - never exceeding the allocation ``m``,
    because the performance model already limited bandwidth to what ``m``
    buys.

The model is deliberately *consistent* with the performance model: reducing
``m`` throttles bandwidth (performance falls) and the DRAM power falls with
the achieved traffic, exactly like DRAM RAPL capping behaves on real parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ConfigurationError
from repro.server.config import KnobSetting, ServerConfig
from repro.server.perf_model import PerformanceModel
from repro.workloads.profiles import WorkloadProfile


@dataclass(frozen=True)
class PowerBreakdown:
    """Itemized server power at one instant.

    Attributes:
        idle_w: Always-on baseline (``P_idle``).
        cm_w: Chip-maintenance power (``P_cm``); zero when no app is active.
        app_w: Attributable dynamic power per application name (``P_X``).
        esd_charge_w: Power flowing into the energy-storage device.
        esd_discharge_w: Power supplied by the energy-storage device.
    """

    idle_w: float
    cm_w: float
    app_w: Mapping[str, float] = field(default_factory=dict)
    esd_charge_w: float = 0.0
    esd_discharge_w: float = 0.0

    @property
    def dynamic_w(self) -> float:
        """Total application dynamic power (sum of ``P_X``)."""
        return sum(self.app_w.values())

    @property
    def wall_w(self) -> float:
        """Power drawn from the wall: Eq. (2)'s left-hand side.

        Discharge *offsets* wall draw - the served load can exceed the wall
        draw while the battery covers the difference.
        """
        return (
            self.idle_w
            + self.cm_w
            + self.dynamic_w
            + self.esd_charge_w
            - self.esd_discharge_w
        )

    @property
    def served_w(self) -> float:
        """Power consumed by the server itself (excluding ESD flows)."""
        return self.idle_w + self.cm_w + self.dynamic_w


class PowerModel:
    """Evaluates application and server power on a given server configuration.

    Args:
        config: The server whose calibration constants parameterize the model.
        perf_model: Performance model used to derive core utilization and
            achieved DRAM traffic. If omitted, one is built from ``config``.
    """

    def __init__(self, config: ServerConfig, perf_model: PerformanceModel | None = None) -> None:
        if perf_model is not None and perf_model.config is not config:
            raise ConfigurationError(
                "perf_model was built for a different ServerConfig instance"
            )
        self._config = config
        self._perf = perf_model if perf_model is not None else PerformanceModel(config)

    @property
    def config(self) -> ServerConfig:
        """The server configuration this model was built for."""
        return self._config

    @property
    def perf_model(self) -> PerformanceModel:
        """The performance model used for utilization/traffic coupling."""
        return self._perf

    # ------------------------------------------------------------- per app

    def core_power_w(self, profile: WorkloadProfile, knob: KnobSetting) -> float:
        """Dynamic power of the app's cores at this knob setting."""
        cfg = self._config
        per_core = cfg.p_core_peak_w * (knob.freq_ghz / cfg.freq_max_ghz) ** cfg.core_power_exponent
        utilization = self._perf.core_utilization(profile, knob)
        return knob.cores * per_core * profile.activity_factor * utilization

    def dram_power_w(self, profile: WorkloadProfile, knob: KnobSetting) -> float:
        """Power of the app's DIMM: background plus traffic-proportional.

        Bounded above by the allocation ``m`` because the performance model
        limits achieved bandwidth to what ``m`` buys.
        """
        cfg = self._config
        traffic = self._perf.achieved_bandwidth_gbs(profile, knob)
        power = cfg.dram_static_w + traffic * cfg.dram_w_per_gbs
        # Guard against float drift pushing a hair over the allocation.
        return min(power, knob.dram_power_w)

    def app_power_w(self, profile: WorkloadProfile, knob: KnobSetting) -> float:
        """Total attributable dynamic power ``P_X`` of one running application."""
        return (
            self._config.p_app_floor_w
            + self.core_power_w(profile, knob)
            + self.dram_power_w(profile, knob)
        )

    def min_app_power_w(self, profile: WorkloadProfile) -> float:
        """``P_X`` at the cheapest runnable knob (the ~10 W of Section IV-B)."""
        return self.app_power_w(profile, self._config.min_knob)

    def max_app_power_w(self, profile: WorkloadProfile) -> float:
        """``P_X`` at the uncapped knob - the app's unconstrained demand."""
        return self.app_power_w(profile, self._config.max_knob)

    # ------------------------------------------------------------- server

    def server_breakdown(
        self,
        running: Mapping[str, tuple[WorkloadProfile, KnobSetting]],
        *,
        esd_charge_w: float = 0.0,
        esd_discharge_w: float = 0.0,
        deep_sleep: bool = False,
    ) -> PowerBreakdown:
        """Itemized server power with the given set of running applications.

        Args:
            running: Applications currently *executing* (suspended apps draw
                nothing), mapped to their profile and knob setting.
            esd_charge_w: Power currently charging the ESD (adds to wall draw).
            esd_discharge_w: Power currently supplied by the ESD (offsets wall
                draw).
            deep_sleep: When ``True`` and nothing is running, the sockets are
                in package PC6 - ``P_cm`` is zero. When ``False`` with nothing
                running, the uncore is still awake and ``P_cm`` is charged
                (the paper's coordinator explicitly requests deep sleep during
                collective OFF periods; a merely-idle uncore does not sleep).

        Raises:
            ConfigurationError: if both ESD flows are positive (a physical
                battery cannot charge and discharge at the same instant), or
                if ``deep_sleep`` is requested while applications run.
        """
        if esd_charge_w < 0 or esd_discharge_w < 0:
            raise ConfigurationError("ESD power flows must be non-negative")
        if esd_charge_w > 0 and esd_discharge_w > 0:
            raise ConfigurationError("ESD cannot charge and discharge simultaneously")
        if deep_sleep and running:
            raise ConfigurationError("cannot deep-sleep sockets with applications running")
        cfg = self._config
        any_active = bool(running)
        if any_active:
            cm_w = cfg.p_cm_w
        else:
            # Idle but awake: the uncore stays powered; only PC6 drops P_cm.
            cm_w = 0.0 if deep_sleep else cfg.p_cm_w
        app_w = {
            name: self.app_power_w(profile, knob)
            for name, (profile, knob) in running.items()
        }
        return PowerBreakdown(
            idle_w=cfg.p_idle_w,
            cm_w=cm_w,
            app_w=app_w,
            esd_charge_w=esd_charge_w,
            esd_discharge_w=esd_discharge_w,
        )
