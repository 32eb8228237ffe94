"""Vector drop-in models: the scalar API served from cached surfaces.

:class:`VectorPerformanceModel` and :class:`VectorPowerModel` subclass the
scalar models and answer every per-``(profile, knob)`` query as a gather
from the :mod:`repro.engine.surface` tables. Because the tables are built
with identical operation ordering (see that module's docstring), each
answer is bit-identical to the scalar computation - the engine, telemetry,
learn and defense phases all produce byte-identical traces either way.

Queries for knobs outside the discrete grid (none exist on the normal paths,
which validate knobs before actuation, but the API allows them) fall back to
the scalar superclass - the fallback is bitwise consistent with the tables
by construction, so mixing the two paths is safe.

Every returned value is a Python ``float`` (``float(np.float64)`` is exact),
so nothing downstream - JSON checkpoints, trace events, state dicts - ever
sees a numpy scalar.
"""

from __future__ import annotations

from repro.engine.surface import ConfigGrid, ResponseSurface, grid_for
from repro.server.config import KnobSetting, ServerConfig
from repro.server.perf_model import PerformanceModel
from repro.server.power_model import PowerModel
from repro.workloads.profiles import WorkloadProfile

__all__ = ["VectorPerformanceModel", "VectorPowerModel"]


class VectorPerformanceModel(PerformanceModel):
    """Performance model backed by precomputed response surfaces."""

    def __init__(self, config: ServerConfig) -> None:
        super().__init__(config)
        self._grid: ConfigGrid = grid_for(config)
        #: Off-grid queries answered by the scalar superclass. Every unit
        #: here is a silent fast-path bypass; the mediator surfaces the sum
        #: as the ``engine.fallback`` metrics counter.
        self.fallbacks = 0

    def surface_of(self, profile: WorkloadProfile) -> ResponseSurface:
        """The profile's cached full-knob-space surface."""
        return self._grid.surface(profile)

    # Each override: O(1) gather on-grid, scalar-superclass off-grid.

    def compute_rate(self, profile: WorkloadProfile, knob: KnobSetting) -> float:
        idx = self._grid.index_of(knob)
        if idx is None:
            self.fallbacks += 1
            return super().compute_rate(profile, knob)
        return float(self._grid.surface(profile).compute_rate[idx])

    def usable_bandwidth_gbs(self, knob: KnobSetting) -> float:
        idx = self._grid.index_of(knob)
        if idx is None:
            self.fallbacks += 1
            return super().usable_bandwidth_gbs(knob)
        return float(self._grid.usable_bandwidth_gbs[idx])

    def memory_rate(self, profile: WorkloadProfile, knob: KnobSetting) -> float:
        idx = self._grid.index_of(knob)
        if idx is None:
            self.fallbacks += 1
            return super().memory_rate(profile, knob)
        return float(self._grid.surface(profile).memory_rate[idx])

    def rate(self, profile: WorkloadProfile, knob: KnobSetting) -> float:
        idx = self._grid.index_of(knob)
        if idx is None:
            self.fallbacks += 1
            return super().rate(profile, knob)
        return float(self._grid.surface(profile).rate[idx])

    def core_utilization(self, profile: WorkloadProfile, knob: KnobSetting) -> float:
        idx = self._grid.index_of(knob)
        if idx is None:
            self.fallbacks += 1
            return super().core_utilization(profile, knob)
        return float(self._grid.surface(profile).core_utilization[idx])

    def achieved_bandwidth_gbs(
        self, profile: WorkloadProfile, knob: KnobSetting
    ) -> float:
        idx = self._grid.index_of(knob)
        if idx is None:
            self.fallbacks += 1
            return super().achieved_bandwidth_gbs(profile, knob)
        return float(self._grid.surface(profile).achieved_bandwidth_gbs[idx])

    def peak_rate(self, profile: WorkloadProfile) -> float:
        return self._grid.surface(profile).peak_rate


class VectorPowerModel(PowerModel):
    """Power model backed by the same cached surfaces.

    Pass the :class:`VectorPerformanceModel` built for the *same config
    instance* (the superclass enforces the identity check); one is built
    implicitly when omitted.
    """

    def __init__(
        self, config: ServerConfig, perf_model: PerformanceModel | None = None
    ) -> None:
        if perf_model is None:
            perf_model = VectorPerformanceModel(config)
        super().__init__(config, perf_model)
        self._grid: ConfigGrid = grid_for(config)
        #: Off-grid queries answered by the scalar superclass (see
        #: :class:`VectorPerformanceModel`.fallbacks).
        self.fallbacks = 0

    def surface_of(self, profile: WorkloadProfile) -> ResponseSurface:
        """The profile's cached surface (the learn-path batch hook:
        :meth:`repro.core.utility.CandidateSet.from_models` gathers its
        power/perf columns instead of looping 432 scalar model calls)."""
        return self._grid.surface(profile)

    def core_power_w(self, profile: WorkloadProfile, knob: KnobSetting) -> float:
        idx = self._grid.index_of(knob)
        if idx is None:
            self.fallbacks += 1
            return super().core_power_w(profile, knob)
        return float(self._grid.surface(profile).core_power_w[idx])

    def dram_power_w(self, profile: WorkloadProfile, knob: KnobSetting) -> float:
        idx = self._grid.index_of(knob)
        if idx is None:
            self.fallbacks += 1
            return super().dram_power_w(profile, knob)
        return float(self._grid.surface(profile).dram_power_w[idx])

    def app_power_w(self, profile: WorkloadProfile, knob: KnobSetting) -> float:
        idx = self._grid.index_of(knob)
        if idx is None:
            self.fallbacks += 1
            return super().app_power_w(profile, knob)
        return float(self._grid.surface(profile).app_power_w[idx])
