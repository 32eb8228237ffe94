"""Simulated Intel RAPL: energy counters and power-capping domains.

Real RAPL exposes, per domain (package, DRAM), a monotonically increasing
energy counter and a settable average-power limit that the hardware enforces
by throttling. The paper uses both sides: counters for *measuring* socket and
DRAM power of an application (to populate the utility matrices) and limits for
*enforcing* per-application caps in the Util-Unaware baseline and DRAM
allocations in all policies.

This module reproduces that contract:

* :class:`RaplDomain` - one counter + one limit;
* :class:`RaplInterface` - the per-server set of domains, advanced by the
  simulation engine each tick with the true per-component powers, optionally
  perturbed by measurement noise (counters on real parts have update jitter
  and quantization; the collaborative-filtering pipeline must cope with it).

Enforcement of *package* limits is performed by the engine/policies via DVFS
(as hardware RAPL effectively does); the domain here records the limit and
reports violations, mirroring how the sysfs interface behaves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

#: Wrap range of the hardware ``energy_uj`` counter: 2^32 microjoules.
#: At an 80 W draw the counter wraps roughly every 54 seconds, so any
#: realistic run crosses it many times - consumers must difference counters
#: with :func:`energy_delta_j`, never by raw subtraction.
ENERGY_WRAP_J = 2**32 * 1e-6


def energy_delta_j(later_j: float, earlier_j: float) -> float:
    """Wraparound-safe difference between two energy-counter readings.

    Mirrors how real RAPL consumers (e.g. ``turbostat``) difference the
    32-bit ``energy_uj`` counter: a later reading that is numerically smaller
    than the earlier one means the counter wrapped (assumed at most once per
    sampling interval, which holds for any sane sampling rate).

    Args:
        later_j: The more recent counter reading.
        earlier_j: The older counter reading.

    Returns:
        The energy accumulated between the two readings, in joules.
    """
    delta = later_j - earlier_j
    if delta < 0:
        delta += ENERGY_WRAP_J
    return delta


@dataclass
class RaplDomain:
    """One RAPL domain: an energy counter plus a power limit.

    The counter emulates the 32-bit ``energy_uj`` register of real parts: it
    accumulates modulo :data:`ENERGY_WRAP_J` (about 4294.97 J), so readers must
    use :func:`energy_delta_j` to difference two samples.

    Attributes:
        name: Domain name, e.g. ``"package-0"`` or ``"dram-1"``.
        energy_j: Energy counter in joules, modulo :data:`ENERGY_WRAP_J`.
        power_limit_w: Current average-power limit; ``None`` means uncapped.
        last_power_w: Most recent instantaneous power written by the engine.
    """

    name: str
    energy_j: float = 0.0
    power_limit_w: float | None = None
    last_power_w: float = 0.0

    def advance(self, power_w: float, dt_s: float) -> None:
        """Accumulate ``power_w`` watts over ``dt_s`` seconds (with wrap)."""
        if power_w < 0:
            raise ConfigurationError(f"negative power {power_w} on domain {self.name}")
        if dt_s < 0:
            raise ConfigurationError("time cannot move backwards")
        self.energy_j = (self.energy_j + power_w * dt_s) % ENERGY_WRAP_J
        self.last_power_w = power_w


class RaplInterface:
    """The set of RAPL domains of one server and a window-based power meter.

    Domains created: one ``package-<s>`` and one ``dram-<s>`` per socket, plus
    a synthetic ``psys`` domain for full-server wall power (matching modern
    platforms' PSys plane, which the paper's wall-power measurements stand in
    for).

    Args:
        sockets: Number of sockets.
        noise_std_w: Standard deviation of gaussian measurement noise applied
            by :meth:`read_power_w`. Zero gives exact readings.
        seed: Seed for the noise generator, so experiments are reproducible.
    """

    def __init__(self, sockets: int, *, noise_std_w: float = 0.0, seed: int = 0) -> None:
        if sockets < 1:
            raise ConfigurationError("need at least one socket")
        if noise_std_w < 0:
            raise ConfigurationError("noise_std_w must be non-negative")
        self._domains: dict[str, RaplDomain] = {}
        for s in range(sockets):
            self._domains[f"package-{s}"] = RaplDomain(f"package-{s}")
            self._domains[f"dram-{s}"] = RaplDomain(f"dram-{s}")
        self._domains["psys"] = RaplDomain("psys")
        self._noise_std_w = noise_std_w
        self._rng = np.random.default_rng(seed)

    @property
    def domain_names(self) -> list[str]:
        """All domain names, sorted."""
        return sorted(self._domains)

    def domain(self, name: str) -> RaplDomain:
        """Look up a domain.

        Raises:
            ConfigurationError: for unknown names (like a bad sysfs path).
        """
        try:
            return self._domains[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown RAPL domain {name!r}; have {self.domain_names}"
            ) from None

    # ----------------------------------------------------------- persistence

    def state_dict(self) -> dict:
        """Snapshot every domain plus the noise RNG for checkpointing.

        The RNG state (``numpy`` bit-generator dict) is included so noisy
        power readings after a restore draw the exact values the
        uninterrupted run would have drawn.
        """
        return {
            "domains": {
                name: {
                    "energy_j": dom.energy_j,
                    "power_limit_w": dom.power_limit_w,
                    "last_power_w": dom.last_power_w,
                }
                for name, dom in self._domains.items()
            },
            "rng": self._rng.bit_generator.state,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot exactly."""
        for name, fields in state["domains"].items():
            dom = self.domain(name)
            dom.energy_j = float(fields["energy_j"])
            limit = fields["power_limit_w"]
            dom.power_limit_w = None if limit is None else float(limit)
            dom.last_power_w = float(fields["last_power_w"])
        self._rng.bit_generator.state = state["rng"]

    # ----------------------------------------------------------- engine side

    def advance(self, powers_w: dict[str, float], dt_s: float) -> None:
        """Engine hook: accumulate true per-domain powers over one tick.

        Domains absent from ``powers_w`` accumulate zero watts.
        """
        for name, dom in self._domains.items():
            dom.advance(powers_w.get(name, 0.0), dt_s)

    # ----------------------------------------------------------- client side

    def read_energy_j(self, name: str) -> float:
        """Read a domain's energy counter (exact; counters do not drift)."""
        return self.domain(name).energy_j

    def read_power_w(self, name: str) -> float:
        """Read a domain's instantaneous power, with measurement noise.

        Noise is truncated at zero (a counter-difference power estimate is
        never negative).
        """
        true = self.domain(name).last_power_w
        if self._noise_std_w == 0.0:
            return true
        return max(0.0, true + float(self._rng.normal(0.0, self._noise_std_w)))

    def set_power_limit(self, name: str, limit_w: float | None) -> None:
        """Set (or clear, with ``None``) a domain's average-power limit.

        Raises:
            ConfigurationError: for non-positive limits.
        """
        if limit_w is not None and limit_w <= 0:
            raise ConfigurationError(f"power limit must be positive, got {limit_w}")
        self.domain(name).power_limit_w = limit_w
