"""Sparse-sampling strategies: which knob settings to measure online.

Measuring one configuration means actually running the application at that
setting for a settling window, so samples are expensive (the paper charges
these overheads to its results and picks a 10% sampling fraction in Fig. 7).
The strategies here decide *which* columns of the knob space to spend that
budget on:

* :class:`RandomSampler` - uniform without replacement; the paper's baseline
  protocol;
* :class:`StratifiedSampler` - guarantees the knob-space corners (uncapped
  and minimum) plus per-dimension spread, then fills the remaining budget
  randomly. The uncapped corner doubles as the performance normalization
  anchor (see :mod:`repro.learning.collaborative`), which is why this is the
  default in the framework.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.engine.surface import grid_for
from repro.errors import ConfigurationError
from repro.server.config import KnobSetting, ServerConfig


class Sampler(abc.ABC):
    """Strategy interface: choose knob settings to measure for one app."""

    @abc.abstractmethod
    def select(self, config: ServerConfig) -> list[KnobSetting]:
        """The settings to measure, in measurement order."""

    @staticmethod
    def budget_from_fraction(config: ServerConfig, fraction: float) -> int:
        """Number of samples a fraction of the knob space buys (at least 1).

        Raises:
            ConfigurationError: unless ``0 < fraction <= 1``.
        """
        _check_fraction(fraction)
        # The knob space is the product of the three axes; count it without
        # building its KnobSettings.
        space_size = (
            len(config.frequencies_ghz) * len(config.core_counts) * len(config.dram_powers_w)
        )
        return max(1, int(round(fraction * space_size)))


def _check_fraction(fraction: float) -> None:
    """Raise unless ``0 < fraction <= 1``."""
    if not 0.0 < fraction <= 1.0:
        raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")


def sampler_spec(sampler: Sampler) -> dict:
    """Describe a sampler as a plain dict (for checkpoint recipes).

    Samplers are stateless between :meth:`Sampler.select` calls - each call
    builds a fresh RNG from the stored seed - so type + constructor
    arguments reproduce one exactly.

    Raises:
        ConfigurationError: for a sampler type this module does not know.
    """
    if isinstance(sampler, AdaptiveSampler):
        return {
            "type": "adaptive",
            "fraction": sampler.fraction,
            "seed": sampler._seed,  # noqa: SLF001 - sibling access
            "bootstrap_fraction": sampler._bootstrap_fraction,  # noqa: SLF001
        }
    if isinstance(sampler, StratifiedSampler):
        return {
            "type": "stratified",
            "fraction": sampler.fraction,
            "seed": sampler._seed,  # noqa: SLF001
        }
    if isinstance(sampler, RandomSampler):
        return {
            "type": "random",
            "fraction": sampler.fraction,
            "seed": sampler._seed,  # noqa: SLF001
        }
    raise ConfigurationError(
        f"cannot serialize sampler of type {type(sampler).__name__}"
    )


def sampler_from_spec(spec: dict) -> Sampler:
    """Inverse of :func:`sampler_spec`.

    Raises:
        ConfigurationError: for an unknown sampler type tag.
    """
    kind = spec.get("type")
    fraction = float(spec["fraction"])
    seed = int(spec["seed"])
    if kind == "adaptive":
        return AdaptiveSampler(
            fraction, seed=seed, bootstrap_fraction=float(spec["bootstrap_fraction"])
        )
    if kind == "stratified":
        return StratifiedSampler(fraction, seed=seed)
    if kind == "random":
        return RandomSampler(fraction, seed=seed)
    raise ConfigurationError(f"unknown sampler type {kind!r} in spec")


class RandomSampler(Sampler):
    """Uniform sampling without replacement.

    Args:
        fraction: Fraction of the knob space to measure.
        seed: RNG seed for reproducible sample sets.
    """

    def __init__(self, fraction: float, *, seed: int = 0) -> None:
        self._fraction = fraction
        self._seed = seed
        _check_fraction(fraction)

    @property
    def fraction(self) -> float:
        return self._fraction

    def select(self, config: ServerConfig) -> list[KnobSetting]:
        space = grid_for(config).knobs
        budget = self.budget_from_fraction(config, self._fraction)
        rng = np.random.default_rng(self._seed)
        indices = rng.choice(len(space), size=budget, replace=False)
        return [space[i] for i in sorted(int(i) for i in indices)]


class StratifiedSampler(Sampler):
    """Corners + per-dimension sweeps + random fill.

    The deterministic part measures:

    1. the uncapped corner ``(f_max, n_max, m_max)`` - the normalization
       anchor and the app's unconstrained demand;
    2. the minimum corner ``(f_min, n_min, m_min)`` - the floor of every
       utility curve;
    3. a sweep of each knob with the others held at maximum (the marginal
       response of each direct resource - exactly the per-resource utilities
       of the paper's Fig. 3).

    Any remaining budget is spent uniformly at random on unmeasured columns.

    Args:
        fraction: Fraction of the knob space to measure; must afford at
            least the two corners.
        seed: RNG seed for the random fill.
    """

    def __init__(self, fraction: float, *, seed: int = 0) -> None:
        self._fraction = fraction
        self._seed = seed
        _check_fraction(fraction)

    @property
    def fraction(self) -> float:
        return self._fraction

    def select(self, config: ServerConfig) -> list[KnobSetting]:
        space = grid_for(config).knobs
        budget = self.budget_from_fraction(config, self._fraction)
        deterministic: list[KnobSetting] = [config.max_knob, config.min_knob]
        fmax, nmax, mmax = (
            config.freq_max_ghz,
            config.cores_max,
            config.dram_power_max_w,
        )
        for f in config.frequencies_ghz:
            deterministic.append(KnobSetting(f, nmax, mmax))
        for n in config.core_counts:
            deterministic.append(KnobSetting(fmax, n, mmax))
        for m in config.dram_powers_w:
            deterministic.append(KnobSetting(fmax, nmax, m))
        # De-duplicate preserving order, then truncate to budget (corners
        # first, so a tiny budget still measures them).
        seen: set[KnobSetting] = set()
        ordered: list[KnobSetting] = []
        for knob in deterministic:
            if knob not in seen:
                seen.add(knob)
                ordered.append(knob)
        ordered = ordered[:budget]
        if len(ordered) < budget:
            remaining = [k for k in space if k not in seen]
            rng = np.random.default_rng(self._seed)
            extra = rng.choice(len(remaining), size=budget - len(ordered), replace=False)
            ordered.extend(remaining[int(i)] for i in sorted(int(i) for i in extra))
        return ordered


class AdaptiveSampler(Sampler):
    """Two-phase active sampling: bootstrap, then query-by-committee.

    The stratified sampler spends its whole budget up front; this sampler
    spends half of it the same way (corners + sweeps, so the normalization
    anchor is always measured), then chooses the rest *adaptively*: after
    folding the bootstrap measurements into the trained collaborative
    model, it repeatedly measures the configuration about which two
    committee estimates - fold-ins from disjoint halves of the measurements
    so far - disagree the most. Disagreement is a truth-free proxy for
    model uncertainty, so the budget concentrates where the surface is
    hardest to infer.

    Use :meth:`select_adaptive` when a measurement callback is available;
    the plain :meth:`select` falls back to the stratified plan (the
    mediator's calibration path can use either).

    Args:
        fraction: Total measurement budget as a fraction of the knob space.
        seed: RNG seed for the bootstrap and committee splits.
        bootstrap_fraction: Share of the budget spent on the stratified
            bootstrap phase.
    """

    def __init__(
        self, fraction: float, *, seed: int = 0, bootstrap_fraction: float = 0.5
    ) -> None:
        if not 0.0 < bootstrap_fraction <= 1.0:
            raise ConfigurationError(
                f"bootstrap_fraction must be in (0, 1], got {bootstrap_fraction}"
            )
        self._fraction = fraction
        self._seed = seed
        self._bootstrap_fraction = bootstrap_fraction
        _check_fraction(fraction)

    @property
    def fraction(self) -> float:
        return self._fraction

    def select(self, config: ServerConfig) -> list[KnobSetting]:
        """Non-adaptive fallback: the stratified plan at the full budget."""
        return StratifiedSampler(self._fraction, seed=self._seed).select(config)

    def select_adaptive(
        self,
        config: ServerConfig,
        measure,
        estimator,
        corpus,
    ) -> dict[KnobSetting, tuple[float, float]]:
        """Run the active-sampling loop; returns all measurements taken.

        Args:
            config: The knob space.
            measure: ``knob -> (power_w, perf)`` measurement callback (one
                online run at that setting).
            estimator: A trained
                :class:`~repro.learning.collaborative.CollaborativeEstimator`.
            corpus: The corpus the estimator was trained on (for column
                indexing).

        Raises:
            LearningError: when the estimator is not trained.
        """
        from repro.errors import LearningError

        if not estimator.is_trained:
            raise LearningError("adaptive sampling needs a trained estimator")
        space = grid_for(config).knobs
        budget = self.budget_from_fraction(config, self._fraction)
        bootstrap_budget = max(2, int(round(budget * self._bootstrap_fraction)))
        bootstrap_fraction = bootstrap_budget / len(space)
        plan = StratifiedSampler(bootstrap_fraction, seed=self._seed).select(config)
        samples: dict[KnobSetting, tuple[float, float]] = {
            knob: measure(knob) for knob in plan[:bootstrap_budget]
        }
        rng = np.random.default_rng(self._seed + 1)
        while len(samples) < budget:
            measured = list(samples)
            if len(measured) < 4:
                # Too few points for a meaningful committee: sample randomly.
                remaining = [k for k in space if k not in samples]
                choice = remaining[int(rng.integers(len(remaining)))]
                samples[choice] = measure(choice)
                continue
            order = rng.permutation(len(measured))
            half_a = {measured[i]: samples[measured[i]] for i in order[::2]}
            half_b = {measured[i]: samples[measured[i]] for i in order[1::2]}
            est_a = estimator.estimate(corpus, half_a)
            est_b = estimator.estimate(corpus, half_b)
            disagreement = np.abs(est_a.power_w - est_b.power_w) + np.abs(
                est_a.perf - est_b.perf
            )
            for knob in samples:
                disagreement[corpus.column_of(knob)] = -1.0
            choice = space[int(np.argmax(disagreement))]
            samples[choice] = measure(choice)
        return samples
