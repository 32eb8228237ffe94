"""Response surfaces: the whole knob space of one app, evaluated in one batch.

The scalar models (:mod:`repro.server.perf_model`,
:mod:`repro.server.power_model`) answer one ``(profile, knob)`` query at a
time with a chain of Python arithmetic. The PR 3 profiler shows the hot
phases (engine, telemetry, learn) spend their time re-running those chains
for the same few hundred points - the knob space has only 432 settings and a
profile's response over it never changes. A :class:`ResponseSurface`
evaluates every quantity the models expose over the *entire* knob space once,
with numpy array operations, and the vector models serve each subsequent
query as an O(1) gather.

**The equivalence contract.** The vector engine must reproduce the scalar
engine bit-for-bit - the golden-trace suite hashes every event, so "close"
is a failure. Two rules make that achievable:

1. *Identical operation ordering.* Every array expression below mirrors the
   scalar model's arithmetic term for term, in the same association order.
   IEEE-754 elementwise ``+ - * /``, ``minimum`` and ``maximum`` are
   correctly rounded in numpy exactly as in CPython, so an identically
   ordered expression produces identical bits.
2. *Scalar ``pow``.* ``**`` is the one operation numpy may route to a SIMD
   library (SVML et al.) that differs from CPython's ``libm`` ``pow`` by an
   ulp. :func:`_pow` therefore applies CPython's scalar ``float.__pow__``
   element by element. The knob space is small and surfaces are cached, so
   the cost is irrelevant.

When adding a new quantity to a surface, follow the same recipe: copy
the scalar expression verbatim, replace branches with masks carrying the
exact branch values, route every ``**`` through :func:`_pow`, and extend the
differential suite to cover the new column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.server.config import KnobSetting, ServerConfig
from repro.workloads.profiles import WorkloadProfile

__all__ = ["ConfigGrid", "Frontier", "ResponseSurface", "grid_for"]

#: The allocator's budget grid: rounding loss stays well under the knob
#: space's own power granularity.
GRAIN_W = 0.25


def _pow(base: np.ndarray, exponent: float) -> np.ndarray:
    """Elementwise ``base ** exponent`` via CPython's scalar ``pow``.

    numpy's ``**`` may dispatch to a vendor vector-math library whose results
    differ from ``libm`` by an ulp on some hosts; that single ulp would flip
    every downstream trace hash. Routing through ``float.__pow__`` keeps the
    vector path bit-identical to the scalar models on every platform.
    """
    return np.array([b ** exponent for b in base.tolist()], dtype=np.float64)


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only: cached tables are shared, never copied."""
    array.flags.writeable = False
    return array


class Frontier:
    """The power-performance Pareto frontier of one response, with the
    allocator's option arrays on the :data:`GRAIN_W` budget grid.

    A knob is on the frontier when no other knob delivers at least its
    performance for strictly less power. Points are listed by ascending
    power, and performance strictly rises along the list.

    Attributes:
        indices: Frontier knob positions, by ascending power.
        power_w: Their powers.
        relative_perf: Their ``perf / perf_nocap``.
    """

    __slots__ = ("indices", "power_w", "relative_perf", "_options")

    def __init__(self, power_w: np.ndarray, perf: np.ndarray, perf_nocap: float) -> None:
        order = np.lexsort((-perf, power_w)).tolist()
        # Scan Python floats: the same IEEE comparisons as numpy scalars, at
        # a fraction of the cost per element.
        perf_list = perf.tolist()
        frontier: list[int] = []
        best_perf = -math.inf
        for idx in order:
            if perf_list[idx] > best_perf + 1e-12:
                frontier.append(idx)
                best_perf = perf_list[idx]
        self.indices = _frozen(np.array(frontier, dtype=np.intp))
        self.power_w = _frozen(power_w[self.indices])
        self.relative_perf = _frozen(perf[self.indices] / perf_nocap)
        self._options: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def options(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The allocator's choices on the :data:`GRAIN_W` budget grid, cached.

        Three aligned arrays: grid cost (power rounded *up* to the grid,
        as floats), unweighted utility (relative perf plus a 1e-9
        inclusion bonus) and knob index. Option 0 is "excluded" (cost 0,
        utility 0, index -1); the frontier follows, so costs ascend and
        the options fitting any budget are a prefix.
        """
        if self._options is None:
            self._options = (
                _frozen(np.concatenate(([0.0], np.ceil(self.power_w / GRAIN_W - 1e-9)))),
                _frozen(np.concatenate(([0.0], self.relative_perf + 1e-9))),
                _frozen(np.concatenate(([-1], self.indices))),
            )
        return self._options


class ConfigGrid:
    """Profile-independent precomputation over one config's knob space.

    Holds the knob tuple in canonical order (f-major, then n, then m - the
    same order :meth:`ServerConfig.knob_space` defines), the knob -> index
    map used for O(1) lookups, and every array that depends on the knobs but
    not on the workload (usable bandwidth, per-core power). Profile surfaces
    built on this grid are cached here, keyed by the profile's numeric
    response-surface fields, so repeated runs over the catalog share them.
    """

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self.knobs: tuple[KnobSetting, ...] = tuple(config.knob_space())
        self.index: dict[KnobSetting, int] = {k: i for i, k in enumerate(self.knobs)}
        self.cores = np.array([float(k.cores) for k in self.knobs], dtype=np.float64)
        self.dram_power_w = np.array(
            [k.dram_power_w for k in self.knobs], dtype=np.float64
        )
        freq = np.array([k.freq_ghz for k in self.knobs], dtype=np.float64)
        # Mirrors PerformanceModel.compute_rate / usable_bandwidth_gbs and
        # PowerModel.core_power_w term for term (see the module docstring).
        self.freq_ratio = freq / config.freq_max_ghz
        allocation_bw = (
            np.maximum(0.0, self.dram_power_w - config.dram_static_w)
            / config.dram_w_per_gbs
        )
        core_pull_bw = (
            self.cores * config.core_bw_gbs * (0.5 + 0.5 * self.freq_ratio)
        )
        self.usable_bandwidth_gbs = np.minimum(allocation_bw, core_pull_bw)
        self.per_core_power_w = config.p_core_peak_w * _pow(
            self.freq_ratio, config.core_power_exponent
        )
        self.max_index = self.index[config.max_knob]
        self._surfaces: dict[tuple, ResponseSurface] = {}

    def index_of(self, knob: KnobSetting) -> int | None:
        """Position of ``knob`` in the canonical order, ``None`` off-grid."""
        return self.index.get(knob)

    def surface(self, profile: WorkloadProfile) -> "ResponseSurface":
        """The (cached) response surface of ``profile`` on this grid.

        Keyed by the numeric fields that parameterize the response surface;
        ``name``/``total_work`` variants (``with_total_work``) share one
        surface, while ``scaled`` copies get their own.
        """
        key = (
            profile.parallel_fraction,
            profile.base_rate,
            profile.dvfs_sensitivity,
            profile.mem_gb_per_work,
            profile.activity_factor,
        )
        surface = self._surfaces.get(key)
        if surface is None:
            surface = _build_surface(self, profile)
            self._surfaces[key] = surface
        return surface


@dataclass(frozen=True)
class ResponseSurface:
    """Every model quantity of one profile, tabulated over the knob space.

    The arrays align with :attr:`ConfigGrid.knobs`; each entry is bitwise
    equal to what the scalar model returns for that knob. They are
    read-only, so candidate sets share them instead of copying.
    ``frontier`` is the Pareto frontier of ``(app_power_w, rate)``
    relative to ``peak_rate``, built with the surface.
    """

    grid: ConfigGrid
    compute_rate: np.ndarray
    memory_rate: np.ndarray
    rate: np.ndarray
    core_utilization: np.ndarray
    achieved_bandwidth_gbs: np.ndarray
    core_power_w: np.ndarray
    dram_power_w: np.ndarray
    app_power_w: np.ndarray
    peak_rate: float
    frontier: Frontier

    @property
    def knobs(self) -> tuple[KnobSetting, ...]:
        return self.grid.knobs


def _build_surface(grid: ConfigGrid, profile: WorkloadProfile) -> ResponseSurface:
    """Evaluate the full scalar model chain for one profile as array ops.

    Each block mirrors the corresponding scalar method; comments name them so
    drift between the two paths is reviewable side by side.
    """
    cfg = grid.config

    # PerformanceModel.compute_rate
    p = profile.parallel_fraction
    amdahl = 1.0 / ((1.0 - p) + p / grid.cores)
    freq_factor = _pow(grid.freq_ratio, profile.dvfs_sensitivity)
    compute_rate = profile.base_rate * amdahl * freq_factor

    # PerformanceModel.memory_rate / rate
    if profile.mem_gb_per_work == 0.0:
        memory_rate = np.full_like(compute_rate, np.inf)
        rate = compute_rate.copy()
    else:
        memory_rate = grid.usable_bandwidth_gbs / profile.mem_gb_per_work
        s = cfg.bottleneck_sharpness
        rate = np.zeros_like(compute_rate)
        valid = (memory_rate > 0.0) & (compute_rate > 0.0)
        blend = _pow(compute_rate[valid], -s) + _pow(memory_rate[valid], -s)
        rate[valid] = _pow(blend, -1.0 / s)

    # PerformanceModel.core_utilization
    core_utilization = np.zeros_like(compute_rate)
    positive = compute_rate > 0.0
    core_utilization[positive] = np.minimum(1.0, rate[positive] / compute_rate[positive])

    # PerformanceModel.achieved_bandwidth_gbs
    achieved_bandwidth_gbs = rate * profile.mem_gb_per_work

    # PowerModel.core_power_w / dram_power_w / app_power_w
    core_power_w = (
        grid.cores * grid.per_core_power_w * profile.activity_factor * core_utilization
    )
    dram_power_w = np.minimum(
        cfg.dram_static_w + achieved_bandwidth_gbs * cfg.dram_w_per_gbs,
        grid.dram_power_w,
    )
    app_power_w = cfg.p_app_floor_w + core_power_w + dram_power_w

    peak_rate = float(rate[grid.max_index])
    return ResponseSurface(
        grid=grid,
        compute_rate=_frozen(compute_rate),
        memory_rate=_frozen(memory_rate),
        rate=_frozen(rate),
        core_utilization=_frozen(core_utilization),
        achieved_bandwidth_gbs=_frozen(achieved_bandwidth_gbs),
        core_power_w=_frozen(core_power_w),
        dram_power_w=_frozen(dram_power_w),
        app_power_w=_frozen(app_power_w),
        peak_rate=peak_rate,
        frontier=Frontier(app_power_w, rate, peak_rate),
    )


#: Grids cached per config instance: every run on the paper's Table I server
#: (the default config singleton) shares one grid and one surface per profile.
_GRIDS: dict[ServerConfig, ConfigGrid] = {}


def grid_for(config: ServerConfig) -> ConfigGrid:
    """The shared :class:`ConfigGrid` of ``config`` (built on first use)."""
    grid = _GRIDS.get(config)
    if grid is None:
        grid = ConfigGrid(config)
        _GRIDS[config] = grid
    return grid
