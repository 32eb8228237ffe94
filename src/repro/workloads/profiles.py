"""Analytic workload profiles: the power-performance response surface of one app.

The paper's framework never inspects an application's code. It observes two
signals - power draw (via RAPL) and performance (via heartbeats) - as functions
of three allocation knobs:

* ``f`` - per-core DVFS frequency (GHz),
* ``n`` - number of cores the application is consolidated onto,
* ``m`` - DRAM power allocated to the application's DIMM (watts).

A :class:`WorkloadProfile` captures everything the simulated server needs to
produce those two signals for an application:

* a *compute side*: base single-core rate, an Amdahl parallel fraction that
  governs core scaling, and a DVFS sensitivity exponent that governs frequency
  scaling;
* a *memory side*: bytes of DRAM traffic per unit of work, which converts a
  bandwidth allowance (set by ``m``) into a work rate, plus a per-core limit on
  how much bandwidth one core can pull;
* a *power side*: an activity factor scaling core dynamic power (memory-stalled
  cores clock-gate and draw less than busy ones).

The actual response-surface arithmetic lives in
:mod:`repro.server.perf_model` and :mod:`repro.server.power_model`, because it
also depends on server parameters (peak per-core power, DRAM static power,
bandwidth per watt). The profile is pure data plus validation plus a couple of
derived conveniences (e.g. :meth:`WorkloadProfile.amdahl_speedup`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.errors import ConfigurationError

#: The workload classes that appear in Table II of the paper.
WORKLOAD_CLASSES = (
    "memory",  # STREAM-style bandwidth streaming
    "analytics",  # MineBench data mining (kmeans, APR)
    "graph",  # GAP graph analytics (BFS, CC, TC, SSSP, BC)
    "search",  # search indexing (PageRank)
    "media",  # PARSEC media processing (x264, facesim, ferret)
)


@dataclass(frozen=True)
class WorkloadProfile:
    """Response-surface parameterization of one application.

    Attributes:
        name: Unique identifier, e.g. ``"stream"`` or ``"kmeans"``.
        wclass: One of :data:`WORKLOAD_CLASSES`; used for reporting and for
            the migration interference model at cluster scale.
        parallel_fraction: Amdahl parallel fraction ``p`` in ``[0, 1]``.
            Governs how much adding cores helps: the compute rate on ``n``
            cores is ``base_rate * 1 / ((1 - p) + p / n)``.
        base_rate: Work units per second on one core at the reference
            frequency (2.0 GHz) when fully compute-bound. Purely a scale
            factor; normalized metrics divide it out.
        dvfs_sensitivity: Exponent ``s`` in ``[0, 1]`` applied to relative
            frequency: compute rate scales with ``(f / f_ref) ** s``. Memory
            -bound codes have low values (frequency does not move DRAM).
        mem_gb_per_work: DRAM traffic, in gigabytes, generated per work unit.
            Converts a bandwidth allowance into a memory-side work rate. Zero
            means the app never touches DRAM beyond caches (fully
            compute-bound).
        activity_factor: Fraction of peak core dynamic power the app draws
            when *not* stalled, in ``(0, 1]``. Stall-induced reduction on top
            of this is computed by the power model from the achieved rate.
        total_work: Work units to completion; used for departures (event E3)
            and for finite experiments. ``float("inf")`` for open-ended apps.
        description: Human-readable provenance note.

    The defaults are deliberately absent - every field except ``description``
    must be specified, because a silently defaulted profile is a mis-calibrated
    experiment.
    """

    name: str
    wclass: str
    parallel_fraction: float
    base_rate: float
    dvfs_sensitivity: float
    mem_gb_per_work: float
    activity_factor: float
    total_work: float
    description: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("workload name must be non-empty")
        if self.wclass not in WORKLOAD_CLASSES:
            raise ConfigurationError(
                f"unknown workload class {self.wclass!r}; expected one of {WORKLOAD_CLASSES}"
            )
        if not 0.0 <= self.parallel_fraction <= 1.0:
            raise ConfigurationError(
                f"parallel_fraction must be in [0, 1], got {self.parallel_fraction}"
            )
        if self.base_rate <= 0:
            raise ConfigurationError(f"base_rate must be positive, got {self.base_rate}")
        if not 0.0 <= self.dvfs_sensitivity <= 1.0:
            raise ConfigurationError(
                f"dvfs_sensitivity must be in [0, 1], got {self.dvfs_sensitivity}"
            )
        if self.mem_gb_per_work < 0:
            raise ConfigurationError(
                f"mem_gb_per_work must be non-negative, got {self.mem_gb_per_work}"
            )
        if not 0.0 < self.activity_factor <= 1.0:
            raise ConfigurationError(
                f"activity_factor must be in (0, 1], got {self.activity_factor}"
            )
        if self.total_work <= 0:
            raise ConfigurationError(f"total_work must be positive, got {self.total_work}")

    def amdahl_speedup(self, cores: int) -> float:
        """Amdahl speedup of this workload on ``cores`` cores relative to one.

        >>> WorkloadProfile("x", "graph", 0.5, 1.0, 1.0, 0.0, 1.0, 1.0).amdahl_speedup(2)
        1.3333333333333333
        """
        if cores < 1:
            raise ConfigurationError(f"cores must be >= 1, got {cores}")
        p = self.parallel_fraction
        return 1.0 / ((1.0 - p) + p / cores)

    def with_total_work(self, total_work: float) -> "WorkloadProfile":
        """Copy of this profile with a different amount of total work.

        Experiments with dynamic departures shorten ``total_work`` so an
        application finishes mid-run; this keeps the catalog immutable.
        """
        return replace(self, total_work=total_work)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form used by the reporting layer."""
        return {
            "name": self.name,
            "wclass": self.wclass,
            "parallel_fraction": self.parallel_fraction,
            "base_rate": self.base_rate,
            "dvfs_sensitivity": self.dvfs_sensitivity,
            "mem_gb_per_work": self.mem_gb_per_work,
            "activity_factor": self.activity_factor,
            "total_work": self.total_work,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadProfile":
        """Inverse of :meth:`to_dict`; ignores unknown keys."""
        known = {
            "name",
            "wclass",
            "parallel_fraction",
            "base_rate",
            "dvfs_sensitivity",
            "mem_gb_per_work",
            "activity_factor",
            "total_work",
            "description",
        }
        return cls(**{k: v for k, v in data.items() if k in known})
