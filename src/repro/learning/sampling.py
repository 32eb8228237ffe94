"""Sparse sampling: which knob settings to measure online.

Measuring one configuration means actually running the application at that
setting for a settling window, so samples are expensive (the paper charges
these overheads to its results and picks a 10% sampling fraction in Fig. 7).
A :class:`Sampler` decides *which* columns of the knob space to spend that
budget on. :class:`StratifiedSampler` guarantees the knob-space corners
(uncapped and minimum) plus per-dimension spread, then fills the remaining
budget randomly. The uncapped corner doubles as the performance
normalization anchor (see :mod:`repro.learning.collaborative`), which is why
it is the framework's sampler.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.engine.surface import grid_for
from repro.errors import ConfigurationError
from repro.server.config import KnobSetting, ServerConfig

#: Measurement noise on one online sample: Gaussian watts on its power draw
#: and a Gaussian relative error on its work rate.
SAMPLE_POWER_NOISE_W = 0.3
SAMPLE_PERF_NOISE_REL = 0.02


class Sampler(abc.ABC):
    """Strategy interface: choose knob settings to measure for one app."""

    @abc.abstractmethod
    def select(self, config: ServerConfig) -> list[KnobSetting]:
        """The settings to measure, in measurement order."""

    @property
    @abc.abstractmethod
    def fraction(self) -> float:
        """The share of the knob space :meth:`select` measures."""

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
