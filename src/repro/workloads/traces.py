"""Cluster power traces and peak-shaving caps (Fig. 12a substrate).

The paper replays dynamic cluster power caps derived from a publicly
available trace of connection-intensive internet services (Chen et al.,
NSDI'08) to shave 15%, 30% and 45% of the cluster's peak draw. We do not
have that proprietary trace, so :class:`ClusterPowerTrace` *generates* one
with the same structure the paper relies on: a strong diurnal cycle (login
traffic peaks in the evening, troughs before dawn), a weekday/weekend
modulation, and short-term noise. Peak shaving then derives the dynamic cap
series: the cluster may draw the forecast demand, but never more than
``(1 - shave) * peak``.

Only the *shape* matters for the experiment - what fraction of time the cap
binds, and how deeply - and that is set by the diurnal swing, which we match
to the published characterization of the NSDI'08 trace (trough around 55% of
peak).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

#: Overnight trough of :meth:`ClusterPowerTrace.synthetic_diurnal`, as a
#: fraction of peak.
DIURNAL_TROUGH_FRACTION = 0.55
#: Relative standard deviation of its multiplicative noise.
DIURNAL_NOISE_FRACTION = 0.02
#: Exponent on its normalized shape: 1.0 is a plain sinusoid, larger values
#: concentrate time near the trough.
DIURNAL_PEAKEDNESS = 2.5


@dataclass(frozen=True)
class ClusterPowerTrace:
    """A demand trace for a cluster, in watts, on a fixed time grid.

    Attributes:
        step_s: Seconds between samples.
        demand_w: Demand samples (uncapped cluster draw if unconstrained).
    """

    step_s: float
    demand_w: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.step_s <= 0:
            raise ConfigurationError("step_s must be positive")
        if not self.demand_w:
            raise ConfigurationError("trace must have at least one sample")
        if any(v < 0 for v in self.demand_w):
            raise ConfigurationError("demand cannot be negative")

    @property
    def peak_w(self) -> float:
        return max(self.demand_w)

    @property
    def trough_w(self) -> float:
        return min(self.demand_w)

    def at(self, time_s: float) -> float:
        """Demand at ``time_s`` (zero-order hold; clamped to the trace)."""
        if time_s < 0:
            raise ConfigurationError("time must be non-negative")
        idx = min(int(time_s / self.step_s), len(self.demand_w) - 1)
        return self.demand_w[idx]

    @classmethod
    def synthetic_diurnal(
        cls,
        *,
        peak_w: float,
        days: float = 1.0,
        step_s: float = 60.0,
        seed: int = 0,
    ) -> "ClusterPowerTrace":
        """Generate a connection-intensive-service-shaped demand trace.

        The shape is a fundamental daily sinusoid peaking at 21:00 plus a
        second harmonic (the characteristic mid-day shoulder of messenger
        /login traffic), normalized, *peaked* by an exponent (connection
        -intensive services spend most of the day well below peak, with a
        pronounced evening spike), scaled into ``[trough, peak]``, and
        perturbed with multiplicative gaussian noise (the ``DIURNAL_*``
        constants).

        Args:
            peak_w: Peak demand (e.g. 10 servers x 130 W = 1300 W).
            days: Trace length in days.
            step_s: Sample spacing.
            seed: RNG seed.
        """
        if peak_w <= 0:
            raise ConfigurationError("peak_w must be positive")
        if days <= 0:
            raise ConfigurationError("days must be positive")
        rng = np.random.default_rng(seed)
        n = max(2, int(round(days * 86400.0 / step_s)))
        t = np.arange(n) * step_s
        hours = (t / 3600.0) % 24.0
        # Fundamental peaking at 21:00 plus a 12 h harmonic for the mid-day
        # shoulder; combined shape normalized into [0, 1].
        fundamental = np.cos(2.0 * np.pi * (hours - 21.0) / 24.0)
        shoulder = 0.35 * np.cos(2.0 * np.pi * (hours - 14.0) / 12.0)
        shape = fundamental + shoulder
        shape = (shape - shape.min()) / (shape.max() - shape.min())
        shape = shape**DIURNAL_PEAKEDNESS
        demand = peak_w * (
            DIURNAL_TROUGH_FRACTION + (1.0 - DIURNAL_TROUGH_FRACTION) * shape
        )
        demand = demand * (1.0 + rng.normal(0.0, DIURNAL_NOISE_FRACTION, size=n))
        demand = np.clip(demand, 0.0, peak_w)
        return cls(step_s=step_s, demand_w=tuple(float(v) for v in demand))


def peak_shaving_caps(trace: ClusterPowerTrace, shave_fraction: float) -> ClusterPowerTrace:
    """Dynamic cap series for shaving ``shave_fraction`` of the trace's peak.

    The cap at each instant is ``min(demand, (1 - shave) * peak)`` - the
    cluster follows its demand while below the shaved ceiling and is capped
    during peak periods (Fig. 12a's plateaus).

    Raises:
        ConfigurationError: unless ``0 <= shave_fraction < 1``.
    """
    if not 0.0 <= shave_fraction < 1.0:
        raise ConfigurationError(
            f"shave_fraction must be in [0, 1), got {shave_fraction}"
        )
    ceiling = (1.0 - shave_fraction) * trace.peak_w
    capped = tuple(min(v, ceiling) for v in trace.demand_w)
    return ClusterPowerTrace(step_s=trace.step_s, demand_w=capped)
