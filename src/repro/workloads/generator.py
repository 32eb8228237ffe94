"""Dynamic workload generation: arrivals, departures, and phase changes.

Section IV-C of the paper evaluates the framework under dynamics: an
application arriving mid-run (event E2, Fig. 11a), departing on completion
(event E3, Fig. 11b), and changing phase internally (event E4). This module
provides the workload-side machinery for those experiments:

* :class:`ArrivalEvent` / :class:`ArrivalSchedule` - a time-ordered list of
  admissions, each departing when its work completes, plus a Poisson
  generator for randomized cluster-scale runs;
* :class:`PhasedProfile` - a workload whose response surface changes at given
  progress fractions, driving E4 re-calibrations.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.workloads.catalog import CATALOG
from repro.workloads.profiles import WorkloadProfile


@dataclass(frozen=True)
class ArrivalEvent:
    """One scheduled admission.

    Attributes:
        time_s: Arrival time.
        profile: The application to admit. Its ``total_work`` governs its
            departure.
    """

    time_s: float
    profile: WorkloadProfile

    def __post_init__(self) -> None:
        # A bare ``< 0`` check lets NaN through (every comparison against
        # NaN is False), and a NaN time silently breaks the schedule's sort
        # order - so demand finiteness explicitly.
        if not math.isfinite(self.time_s):
            raise ConfigurationError(f"arrival time must be finite, got {self.time_s!r}")
        if self.time_s < 0:
            raise ConfigurationError("arrival time must be non-negative")


@dataclass
class ArrivalSchedule:
    """A time-ordered collection of :class:`ArrivalEvent`.

    Construction sorts events by time; :meth:`pop_due` yields them to the
    simulation driver as the clock passes each arrival.
    """

    events: list[ArrivalEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.events.sort(key=lambda e: e.time_s)
        self._cursor = 0

    def __len__(self) -> int:
        return len(self.events)

    @property
    def exhausted(self) -> bool:
        """``True`` when every event has been popped."""
        return self._cursor >= len(self.events)

    def pop_due(self, now_s: float) -> list[ArrivalEvent]:
        """Events with ``time_s <= now_s`` not yet delivered, in order."""
        due: list[ArrivalEvent] = []
        while self._cursor < len(self.events) and self.events[self._cursor].time_s <= now_s:
            due.append(self.events[self._cursor])
            self._cursor += 1
        return due

    def next_time_s(self) -> float | None:
        """Time of the next undelivered event, or ``None``."""
        if self.exhausted:
            return None
        return self.events[self._cursor].time_s

    @classmethod
    def poisson(
        cls,
        *,
        rate_per_s: float,
        horizon_s: float,
        seed: int = 0,
    ) -> "ArrivalSchedule":
        """Random schedule: Poisson arrivals of uniformly-drawn catalog apps.

        Each instance is suffixed (``kmeans#3``) so repeated draws of the
        same application can co-exist on one server.

        Args:
            rate_per_s: Mean arrivals per second.
            horizon_s: Schedule length.
            seed: RNG seed (deterministic schedules for experiments).

        Raises:
            ConfigurationError: on a non-positive or non-finite rate or
                horizon (``NaN <= 0`` is False, so the finite check must be
                explicit or a NaN rate would generate a NaN-timed schedule).
        """
        if not (math.isfinite(rate_per_s) and rate_per_s > 0):
            raise ConfigurationError(
                f"arrival rate must be finite and positive, got {rate_per_s!r}"
            )
        if not (math.isfinite(horizon_s) and horizon_s > 0):
            raise ConfigurationError(
                f"schedule horizon must be finite and positive, got {horizon_s!r}"
            )
        rng = np.random.default_rng(seed)
        pool = sorted(CATALOG)
        events: list[ArrivalEvent] = []
        t = 0.0
        index = 0
        while True:
            t += float(rng.exponential(1.0 / rate_per_s))
            if t >= horizon_s:
                break
            base = CATALOG[pool[int(rng.integers(len(pool)))]]
            profile = WorkloadProfile.from_dict(
                {**base.to_dict(), "name": f"{base.name}#{index}"}
            )
            events.append(ArrivalEvent(time_s=t, profile=profile))
            index += 1
        return cls(events)


class PhasedProfile:
    """A workload whose response surface changes with progress (event E4).

    The segments partition ``[0, 1)`` progress: segment ``i`` applies from
    its threshold until the next one's. All segments must share the same
    name and ``total_work`` (the work contract does not change mid-run, only
    the resource behaviour does).

    Example - kmeans that turns memory-hungry halfway through::

        phased = PhasedProfile([
            (0.0, CATALOG["kmeans"]),
            (0.5, memory_hungry_kmeans_variant),
        ])
    """

    def __init__(self, segments: list[tuple[float, WorkloadProfile]]) -> None:
        if not segments:
            raise ConfigurationError("need at least one segment")
        thresholds = [t for t, _ in segments]
        if thresholds[0] != 0.0:
            raise ConfigurationError("first segment must start at progress 0.0")
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ConfigurationError("segment thresholds must strictly increase")
        if any(not 0.0 <= t < 1.0 for t in thresholds):
            raise ConfigurationError("thresholds must lie in [0, 1)")
        names = {p.name for _, p in segments}
        if len(names) != 1:
            raise ConfigurationError(f"segments must share one name, got {sorted(names)}")
        works = {p.total_work for _, p in segments}
        if len(works) != 1:
            raise ConfigurationError("segments must share total_work")
        self._thresholds = thresholds
        self._profiles = [p for _, p in segments]

    @property
    def name(self) -> str:
        return self._profiles[0].name

    @property
    def initial(self) -> WorkloadProfile:
        """The segment in force at admission."""
        return self._profiles[0]

    @property
    def segments(self) -> list[tuple[float, WorkloadProfile]]:
        """The ``(threshold, profile)`` pairs this profile was built from.

        The profile objects are the stored instances, not copies: the
        mediator finds the current segment by identity, so a consumer
        restoring state from a serialized form must re-link its references
        to these exact objects.
        """
        return list(zip(self._thresholds, self._profiles))

    def profile_at(self, progress_fraction: float) -> WorkloadProfile:
        """The profile in force at ``progress_fraction`` of total work."""
        if not 0.0 <= progress_fraction <= 1.0:
            raise ConfigurationError(
                f"progress fraction must be in [0, 1], got {progress_fraction}"
            )
        idx = bisect.bisect_right(self._thresholds, progress_fraction) - 1
        return self._profiles[max(0, idx)]
