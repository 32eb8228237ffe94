"""Power utility curves: the quantities behind the paper's Figs. 2, 3 and 9.

Three related constructs:

* :class:`CandidateSet` - an application's (power, performance) points over
  the knob space, either from the true models (oracle) or from collaborative
  -filtering estimates. Everything downstream (allocator, policies, utility
  plots) consumes candidate sets, which is what makes "estimated" and
  "oracle" interchangeable in experiments.
* :func:`app_utility_curve` - the application-level utility curve of Fig. 2:
  best achievable relative performance as a function of the app's power
  budget (the upper envelope over all knob settings).
* :func:`resource_marginal_utilities` - the resource-level utilities of
  Fig. 3/9d: performance gained per extra watt spent on each direct resource
  (one more core, one DVFS step, one DRAM watt) from a reference setting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.surface import ConfigGrid, Frontier, grid_for
from repro.errors import ConfigurationError
from repro.server.config import KnobSetting, ServerConfig
from repro.server.perf_model import PerformanceModel
from repro.server.power_model import PowerModel
from repro.workloads.profiles import WorkloadProfile


@dataclass(frozen=True)
class CandidateSet:
    """An application's (power, performance) response over the knob space.

    Attributes:
        app: Application name.
        knobs: Knob settings, aligned with the arrays.
        power_w: ``P_X`` at each knob (watts).
        perf: Work rate at each knob.
        perf_nocap: The rate at the uncapped knob - the normalization
            denominator of objective (1).

    A set is read-only once built: it caches its knob -> position map and
    its Pareto frontier on first use. Sets over the grid's knob tuple share
    :attr:`ConfigGrid.index`, and vector-engine oracle sets share their
    surface's read-only arrays and frontier.
    """

    app: str
    knobs: tuple[KnobSetting, ...]
    power_w: np.ndarray
    perf: np.ndarray
    perf_nocap: float
    _index: dict[KnobSetting, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _frontier: Frontier | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (len(self.knobs) == len(self.power_w) == len(self.perf)):
            raise ConfigurationError("knobs, power and perf must align")
        if len(self.knobs) == 0:
            raise ConfigurationError("candidate set cannot be empty")
        if self.perf_nocap <= 0:
            raise ConfigurationError("perf_nocap must be positive")

    def _on_grid(self, grid: ConfigGrid, frontier: Frontier | None = None) -> "CandidateSet":
        """Share ``grid``'s knob map (the set's knobs are ``grid.knobs``) and,
        when given, a frontier already built for these arrays."""
        object.__setattr__(self, "_index", grid.index)
        object.__setattr__(self, "_frontier", frontier)
        return self

    @classmethod
    def from_models(
        cls,
        profile: WorkloadProfile,
        config: ServerConfig,
        *,
        power_model: PowerModel | None = None,
    ) -> "CandidateSet":
        """Oracle candidate set from the true response models.

        A vector power model (:class:`repro.engine.VectorPowerModel`) exposes
        ``surface_of``; the set then shares the surface's read-only columns
        and frontier instead of looping 432 scalar queries - bit-identical
        either way, so the fast path needs no behavioural carve-outs.
        """
        power_model = power_model if power_model is not None else PowerModel(config)
        perf_model = power_model.perf_model
        surface_of = getattr(power_model, "surface_of", None)
        if surface_of is not None and power_model.config is config:
            surface = surface_of(profile)
            return cls(
                app=profile.name,
                knobs=surface.knobs,
                power_w=surface.app_power_w,
                perf=surface.rate,
                perf_nocap=float(surface.peak_rate),
            )._on_grid(surface.grid, surface.frontier)
        grid = grid_for(config)
        power = np.array([power_model.app_power_w(profile, k) for k in grid.knobs])
        perf = np.array([perf_model.rate(profile, k) for k in grid.knobs])
        return cls(
            app=profile.name,
            knobs=grid.knobs,
            power_w=power,
            perf=perf,
            perf_nocap=float(perf_model.peak_rate(profile)),
        )._on_grid(grid)

    @classmethod
    def from_estimates(
        cls,
        app: str,
        config: ServerConfig,
        power_w: np.ndarray,
        perf: np.ndarray,
    ) -> "CandidateSet":
        """Candidate set from collaborative-filtering estimates.

        ``perf_nocap`` is taken as the estimate at the uncapped knob (which
        the stratified sampler always measures, so it is typically exact).
        """
        grid = grid_for(config)
        knobs = grid.knobs
        if len(power_w) != len(knobs) or len(perf) != len(knobs):
            raise ConfigurationError("estimate arrays must cover the knob space")
        nocap = float(perf[grid.max_index])
        if nocap <= 0:
            raise ConfigurationError(f"estimated uncapped performance of {app!r} is zero")
        return cls(
            app=app,
            knobs=knobs,
            power_w=np.asarray(power_w, dtype=float),
            perf=np.asarray(perf, dtype=float),
            perf_nocap=nocap,
        )._on_grid(grid)

    def to_dict(self) -> dict:
        """JSON-safe form, used by checkpoints.

        Knobs are listed explicitly (not assumed to be the full knob space)
        so subset sets - narrow core groups, throttle paths - round-trip.
        """
        return {
            "app": self.app,
            "knobs": [knob.to_json() for knob in self.knobs],
            "power_w": [float(p) for p in self.power_w],
            "perf": [float(p) for p in self.perf],
            "perf_nocap": float(self.perf_nocap),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CandidateSet":
        """Inverse of :meth:`to_dict`."""
        return cls(
            app=data["app"],
            knobs=tuple(KnobSetting.from_json(raw) for raw in data["knobs"]),
            power_w=np.asarray(data["power_w"], dtype=float),
            perf=np.asarray(data["perf"], dtype=float),
            perf_nocap=float(data["perf_nocap"]),
        )

    @property
    def min_power_w(self) -> float:
        """The cheapest runnable configuration's power."""
        return float(self.power_w.min())

    @property
    def max_power_w(self) -> float:
        """The unconstrained demand (power at the most expensive config)."""
        return float(self.power_w.max())

    def relative_perf(self) -> np.ndarray:
        """``perf / perf_nocap`` per knob - the objective-(1) terms."""
        return self.perf / self.perf_nocap

    def subset(self, indices: list[int], *, rebase_nocap: bool = False) -> "CandidateSet":
        """A candidate set restricted to ``indices`` (e.g. the hardware
        throttle path used by utility-blind enforcement).

        Args:
            indices: Positions to keep, in the desired order.
            rebase_nocap: Recompute ``perf_nocap`` as the subset's best
                performance. Use this when the restriction is *physical*
                (an application admitted with a narrow core group can never
                reach the full-width peak, so its uncapped reference is the
                subset's own best), not when it is merely a search-space
                reduction like the throttle path.
        """
        if not indices:
            raise ConfigurationError("subset needs at least one index")
        perf = self.perf[indices]
        nocap = float(perf.max()) if rebase_nocap else self.perf_nocap
        return CandidateSet(
            app=self.app,
            knobs=tuple(self.knobs[i] for i in indices),
            power_w=self.power_w[indices],
            perf=perf,
            perf_nocap=nocap,
        )

    def position(self, knob: KnobSetting) -> int | None:
        """Index of a knob within this set; ``None`` when it is absent. A
        repeated knob answers its first position."""
        index = self._index
        if index is None:
            index = {}
            for i, k in enumerate(self.knobs):
                index.setdefault(k, i)
            object.__setattr__(self, "_index", index)
        return index.get(knob)

    def index_of(self, knob: KnobSetting) -> int:
        """Index of a knob within this set (its first, if repeated).

        Raises:
            ConfigurationError: when the knob is not present.
        """
        idx = self.position(knob)
        if idx is None:
            raise ConfigurationError(f"{knob} is not in this candidate set")
        return idx

    @property
    def frontier(self) -> Frontier:
        """The set's power-performance Pareto frontier.

        A knob is on the frontier when no other knob delivers at least its
        performance for strictly less power. The allocator's DP only needs
        these points (choosing a dominated config is never optimal).
        """
        frontier = self._frontier
        if frontier is None:
            frontier = Frontier(self.power_w, self.perf, self.perf_nocap)
            object.__setattr__(self, "_frontier", frontier)
        return frontier

    def best_index_under(self, budget_w: float) -> int | None:
        """Index of the best-performance knob fitting ``budget_w``; ``None``
        when nothing fits."""
        feasible = self.power_w <= budget_w + 1e-9
        if not feasible.any():
            return None
        masked = np.where(feasible, self.perf, -np.inf)
        return int(np.argmax(masked))


@dataclass(frozen=True)
class UtilityCurve:
    """An application-level utility curve (one line of Fig. 2).

    Attributes:
        app: Application name.
        budgets_w: Power budgets (ascending).
        relative_perf: Best achievable ``Perf/Perf_nocap`` at each budget
            (0.0 where the budget cannot run the app at all).
    """

    app: str
    budgets_w: tuple[float, ...]
    relative_perf: tuple[float, ...]

    def value_at(self, budget_w: float) -> float:
        """Utility at the largest tabulated budget ``<= budget_w``."""
        value = 0.0
        for b, v in zip(self.budgets_w, self.relative_perf):
            if b <= budget_w + 1e-9:
                value = v
            else:
                break
        return value


def app_utility_curve(
    candidates: CandidateSet,
    budgets_w: list[float] | None = None,
) -> UtilityCurve:
    """The Fig. 2 curve: best relative performance vs. power budget.

    Args:
        candidates: The app's candidate set (oracle or estimated).
        budgets_w: Budgets to tabulate; defaults to a 1 W grid from just
            below the cheapest config to the unconstrained demand.
    """
    if budgets_w is None:
        lo = np.floor(candidates.min_power_w)
        hi = np.ceil(candidates.max_power_w)
        budgets_w = [float(b) for b in np.arange(lo, hi + 0.5, 1.0)]
    values: list[float] = []
    for budget in budgets_w:
        idx = candidates.best_index_under(budget)
        values.append(
            float(candidates.perf[idx] / candidates.perf_nocap) if idx is not None else 0.0
        )
    return UtilityCurve(
        app=candidates.app,
        budgets_w=tuple(budgets_w),
        relative_perf=tuple(values),
    )


def resource_marginal_utilities(
    profile: WorkloadProfile, config: ServerConfig
) -> dict[str, float]:
    """The Fig. 3 quantities: performance per watt of each direct resource.

    From a reference knob setting one core below max, one DVFS step below
    max and one DRAM watt below max (so every resource has headroom to
    grow), computes the marginal utility of spending the next watt on:

    * ``"core"`` - activating one more core,
    * ``"frequency"`` - one DVFS step up on all active cores,
    * ``"memory"`` - one more DRAM watt.

    Returns ``{resource: delta_relative_perf_per_watt}``.
    """
    power_model = PowerModel(config)
    perf_model = power_model.perf_model
    freqs = config.frequencies_ghz
    reference = KnobSetting(
        freqs[-2],
        config.cores_max - 1,
        config.dram_power_max_w - config.dram_power_step_w,
    )
    base_power = power_model.app_power_w(profile, reference)
    base_perf = perf_model.rate(profile, reference)
    nocap = perf_model.peak_rate(profile)

    def utility_of(step: KnobSetting, *, min_delta_w: float = 0.0) -> float:
        """Marginal utility of one knob step, in relative-perf per watt.

        ``min_delta_w`` floors the power delta at the knob's *allocation*
        granularity: raising a DRAM allocation an app does not use changes
        its actual draw by ~0 W, but the watt is still committed from the
        budget - dividing a negligible gain by a negligible draw would
        otherwise report a spuriously high utility.
        """
        d_power = power_model.app_power_w(profile, step) - base_power
        d_perf = (perf_model.rate(profile, step) - base_perf) / nocap
        denom = max(d_power, min_delta_w)
        if denom <= 1e-9:
            return max(0.0, d_perf)
        return d_perf / denom

    freq, cores, dram = reference.freq_ghz, reference.cores, reference.dram_power_w
    return {
        "core": utility_of(KnobSetting(freq, cores + 1, dram)),
        "frequency": utility_of(KnobSetting(freqs[-1], cores, dram)),
        "memory": utility_of(
            KnobSetting(freq, cores, dram + config.dram_power_step_w),
            min_delta_w=config.dram_power_step_w,
        ),
    }
