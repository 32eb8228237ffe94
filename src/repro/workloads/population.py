"""Open-loop client populations: indefinite, diurnally modulated arrivals.

:class:`~repro.workloads.generator.ArrivalSchedule` is *closed*: a finite,
pre-materialized list for a fixed horizon. The service mode needs the
opposite - an **open-loop** offered-load process that keeps producing
arrivals for as long as the service runs, at a rate the service cannot
influence (clients do not slow down because the mediator is busy; that is
exactly what makes backpressure necessary).

:class:`OpenLoopPopulation` draws an inhomogeneous Poisson process by
thinning: candidates arrive at the peak rate, and each survives with
probability ``rate(t) / rate_max`` where ``rate(t)`` layers a diurnal
sinusoid and configured burst windows (overload episodes) over the base
rate. Every accepted offer is attributed to one of ``clients`` simulated
client sessions, round-robin by RNG, so session-level delivery and replay
can be exercised.

The generator is incremental and checkpointable: :meth:`pull_due` advances
an internal cursor, and :meth:`state_dict` / :meth:`load_state_dict`
capture the RNG stream, cursor, and the one look-ahead candidate - so a
service restored from a checkpoint regenerates the *identical* future
offer stream, which is what makes crash recovery replay-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.workloads.catalog import CATALOG
from repro.workloads.profiles import WorkloadProfile

__all__ = ["BurstWindow", "ClientOffer", "OpenLoopPopulation"]


@dataclass(frozen=True)
class BurstWindow:
    """A transient rate multiplier - the overload episodes of a chaos soak."""

    start_s: float
    end_s: float
    multiplier: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.start_s) and self.start_s >= 0):
            raise ConfigurationError(
                f"burst start must be finite and non-negative, got {self.start_s!r}"
            )
        if not (math.isfinite(self.end_s) and self.end_s > self.start_s):
            raise ConfigurationError("burst window must end after it starts")
        if not (math.isfinite(self.multiplier) and self.multiplier >= 1.0):
            raise ConfigurationError(
                f"burst multiplier must be >= 1, got {self.multiplier!r}"
            )

    def to_dict(self) -> dict:
        return {"start_s": self.start_s, "end_s": self.end_s, "multiplier": self.multiplier}


@dataclass(frozen=True)
class ClientOffer:
    """One offered arrival: a client asks the service to run a job."""

    time_s: float
    client: int
    profile: WorkloadProfile

    def to_dict(self) -> dict:
        return {
            "time_s": self.time_s,
            "client": self.client,
            "profile": self.profile.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClientOffer":
        return cls(
            time_s=float(data["time_s"]),
            client=int(data["client"]),
            profile=WorkloadProfile.from_dict(data["profile"]),
        )


class OpenLoopPopulation:
    """Inhomogeneous Poisson offers from a simulated client population.

    Args:
        base_rate_per_s: Mean offered rate away from bursts, at the diurnal
            midline.
        clients: Number of client sessions offers are attributed to.
        seed: RNG seed; the whole offer stream is a pure function of it.
        diurnal_amplitude: Relative swing of the diurnal sinusoid in
            ``[0, 1)``; 0 disables modulation.
        diurnal_period_s: Period of the sinusoid (a "day" in sim seconds).
        bursts: Overload windows, each multiplying the instantaneous rate.
        work_scale: Factor applied to each drawn profile's ``total_work``,
            so service jobs finish (and depart) on service-soak timescales.
    """

    def __init__(
        self,
        *,
        base_rate_per_s: float,
        clients: int = 8,
        seed: int = 0,
        diurnal_amplitude: float = 0.0,
        diurnal_period_s: float = 600.0,
        bursts: tuple[BurstWindow, ...] = (),
        work_scale: float = 1.0,
    ) -> None:
        if not (math.isfinite(base_rate_per_s) and base_rate_per_s > 0):
            raise ConfigurationError(
                f"base rate must be finite and positive, got {base_rate_per_s!r}"
            )
        if clients < 1:
            raise ConfigurationError(f"need at least one client, got {clients}")
        if not 0.0 <= diurnal_amplitude < 1.0:
            raise ConfigurationError(
                f"diurnal amplitude must be in [0, 1), got {diurnal_amplitude!r}"
            )
        if not (math.isfinite(diurnal_period_s) and diurnal_period_s > 0):
            raise ConfigurationError(
                f"diurnal period must be finite and positive, got {diurnal_period_s!r}"
            )
        if not (math.isfinite(work_scale) and work_scale > 0):
            raise ConfigurationError(
                f"work scale must be finite and positive, got {work_scale!r}"
            )
        self._pool = sorted(CATALOG)
        self.base_rate_per_s = float(base_rate_per_s)
        self.clients = int(clients)
        self.seed = int(seed)
        self.diurnal_amplitude = float(diurnal_amplitude)
        self.diurnal_period_s = float(diurnal_period_s)
        self.bursts = tuple(sorted(bursts, key=lambda b: b.start_s))
        self.work_scale = float(work_scale)
        peak_burst = max((b.multiplier for b in self.bursts), default=1.0)
        self._rate_max = self.base_rate_per_s * (1.0 + self.diurnal_amplitude) * peak_burst
        self._rng = np.random.default_rng(self.seed)
        self._t = 0.0  # time of the last accepted candidate
        self._index = 0  # offers generated so far (job-name suffix)
        self._pending: ClientOffer | None = None  # look-ahead past `now_s`
        # Pull-cursor monotonicity guard only; deliberately not checkpointed
        # (a restored population restarts the guard, not the stream).
        self._last_pull_s = -math.inf

    # ------------------------------------------------------------- the rate

    def rate_at(self, t_s: float) -> float:
        """Instantaneous offered rate: base x diurnal x burst multipliers."""
        diurnal = 1.0 + self.diurnal_amplitude * math.sin(
            2.0 * math.pi * t_s / self.diurnal_period_s
        )
        burst = 1.0
        for window in self.bursts:
            if window.start_s <= t_s < window.end_s:
                burst = max(burst, window.multiplier)
        return self.base_rate_per_s * diurnal * burst

    # ----------------------------------------------------------- generation

    def _draw_offer(self) -> ClientOffer:
        t = self._t
        while True:  # thinning: candidates at rate_max, accept at rate(t)/rate_max
            t += float(self._rng.exponential(1.0 / self._rate_max))
            if float(self._rng.random()) * self._rate_max <= self.rate_at(t):
                break
        self._t = t
        client = int(self._rng.integers(self.clients))
        base = CATALOG[self._pool[int(self._rng.integers(len(self._pool)))]]
        profile = WorkloadProfile.from_dict(
            {
                **base.to_dict(),
                "name": f"{base.name}#c{client}j{self._index}",
                "total_work": base.total_work * self.work_scale,
            }
        )
        self._index += 1
        return ClientOffer(time_s=t, client=client, profile=profile)

    def pull_due(self, now_s: float) -> list[ClientOffer]:
        """Offers with ``time_s <= now_s`` not yet pulled, in time order.

        Open-loop: the stream never exhausts; each call advances the cursor
        exactly to ``now_s`` and the first over-the-horizon candidate waits
        in the look-ahead slot for the next call.
        """
        if not math.isfinite(now_s):
            raise ConfigurationError(f"pull_due time must be finite, got {now_s!r}")
        if now_s < self._last_pull_s:
            raise ConfigurationError(
                f"pull_due time went backwards: {now_s!r} after {self._last_pull_s!r}"
            )
        self._last_pull_s = now_s
        due: list[ClientOffer] = []
        while True:
            if self._pending is None:
                self._pending = self._draw_offer()
            if self._pending.time_s > now_s:
                return due
            due.append(self._pending)
            self._pending = None

    # ----------------------------------------------------------- checkpoint

    def state_dict(self) -> dict:
        """Everything needed to resume the identical offer stream."""
        return {
            "rng": self._rng.bit_generator.state,
            "t": self._t,
            "index": self._index,
            "pending": None if self._pending is None else self._pending.to_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        self._rng.bit_generator.state = state["rng"]
        self._t = float(state["t"])
        self._index = int(state["index"])
        pending = state.get("pending")
        self._pending = None if pending is None else ClientOffer.from_dict(pending)
        self._last_pull_s = -math.inf  # the restored run re-pulls from its own clock
