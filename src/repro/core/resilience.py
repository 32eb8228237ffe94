"""Degraded-mode machinery: how the mediator survives a hostile substrate.

Three cooperating pieces, all owned by :class:`~repro.core.mediator.PowerMediator`:

* :class:`TelemetryWatchdog` - classifies each tick's wall-power sample as
  fresh or not. After ``STALE_THRESHOLD`` consecutive non-fresh samples the
  mediator enters *degraded telemetry* mode: it plans against a reduced
  effective cap (guard band widened by ``DEGRADED_GUARD_BAND``), substitutes
  the power model's predicted wall power for the missing observation, and
  treats calibration samples conservatively. Recovery requires
  ``RECOVERY_THRESHOLD`` consecutive fresh samples (hysteresis, so a single
  good sample mid-blackout does not flap the mode).

* :class:`ActuationRetrier` - drains the knob controller's failed-writes
  registry with exponential backoff (retry after 1, 2, 4, ... ticks). After
  ``MAX_ACTUATION_ATTEMPTS`` failed verifications of the same write it escalates: the
  app is suspended (``SIGSTOP`` bypasses the RAPL actuation path entirely),
  which bounds the damage a stuck actuator can do to the cap.

* :class:`FaultStats` - the run's resilience ledger: breach ticks, retries,
  degraded-mode ticks, emergency throttles, and open fault episodes paired
  into MTTR intervals (see :mod:`repro.core.events`).

The mediator's breach policy lives with these: a detected cap breach
triggers :meth:`~repro.core.coordinator.Coordinator.emergency_throttle`
within the same tick, and only a breach that *persists* on the following
tick raises :class:`~repro.errors.SimulationError` - one transient tick of
overshoot under a fault is survivable; two in a row means the emergency
path itself failed, which is a bug.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RetryExhaustedError
from repro.observability.metrics import MetricsRegistry
from repro.server.config import KnobSetting
from repro.server.knobs import KnobController
from repro.util.retry import RetryPolicy


# The degraded-mode machinery's tuning, one value each.
#: Consecutive non-fresh wall samples before entering degraded telemetry mode
#: (the paper's 0.5 s ticks make 3 ticks a 1.5 s detection latency -
#: comparable to one reallocation).
STALE_THRESHOLD = 3
#: Consecutive fresh samples required to leave it.
RECOVERY_THRESHOLD = 2
#: Extra fractional guard band applied to the cap while degraded (on top of
#: the RAPL guard band).
DEGRADED_GUARD_BAND = 0.10
#: Factor applied to sampled per-app powers while degraded, so calibration
#: errs toward over-estimating draw.
CONSERVATIVE_INFLATION = 1.15
#: Verified-write attempts per app before the retrier escalates to suspension.
MAX_ACTUATION_ATTEMPTS = 4


@dataclass
class FaultEpisode:
    """One open or closed fault interval, for MTTR accounting.

    Attributes:
        kind: Fault class (matches the event kinds).
        target: Affected app/domain, or ``None``.
        start_s: When the fault was raised.
        end_s: When it recovered, or ``None`` while open.
    """

    kind: str
    target: str | None
    start_s: float
    end_s: float | None = None

    @property
    def open(self) -> bool:
        return self.end_s is None

    @property
    def duration_s(self) -> float | None:
        """Repair time, or ``None`` while the episode is open."""
        return None if self.end_s is None else self.end_s - self.start_s


def _counter_attr(field_name: str) -> property:
    """An int attribute backed by the registry counter ``resilience.<name>``.

    Reads return the counter value; ``stats.field += n`` round-trips through
    the counter's monotone ``inc``, so a decrease raises instead of silently
    corrupting the ledger.
    """
    key = f"resilience.{field_name}"

    def _get(self: "FaultStats") -> int:
        return int(self.registry.counter(key).value)

    def _set(self: "FaultStats", value: int) -> None:
        counter = self.registry.counter(key)
        counter.inc(value - counter.value)

    return property(_get, _set)


class FaultStats:
    """Resilience counters for one mediated run.

    The counters live in a :class:`~repro.observability.metrics.MetricsRegistry`
    (the mediator shares its run registry so resilience counts appear in the
    exported metrics JSON alongside everything else); the attribute API below
    is unchanged from the original plain-int ledger, and :meth:`state_dict`
    keeps its exact checkpoint shape.

    Attributes:
        breach_ticks: Ticks whose true wall power exceeded cap + tolerance.
        emergency_throttles: Times the emergency floor-throttle path fired.
        actuation_retries: Knob-write retries performed.
        actuation_escalations: Retry sequences that ended in suspension.
        degraded_ticks: Ticks spent in degraded telemetry mode.
        dropped_samples: Wall-power samples that never arrived.
        stale_samples: Samples that arrived but were not fresh.
        crashes: Unexpected application exits (forced E3).
        episodes: Fault episodes for MTTR (closed ones have ``end_s``).
    """

    COUNTER_FIELDS = (
        "breach_ticks",
        "emergency_throttles",
        "actuation_retries",
        "actuation_escalations",
        "degraded_ticks",
        "dropped_samples",
        "stale_samples",
        "crashes",
    )

    breach_ticks = _counter_attr("breach_ticks")
    emergency_throttles = _counter_attr("emergency_throttles")
    actuation_retries = _counter_attr("actuation_retries")
    actuation_escalations = _counter_attr("actuation_escalations")
    degraded_ticks = _counter_attr("degraded_ticks")
    dropped_samples = _counter_attr("dropped_samples")
    stale_samples = _counter_attr("stale_samples")
    crashes = _counter_attr("crashes")

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.episodes: list[FaultEpisode] = []
        for name in self.COUNTER_FIELDS:
            self.registry.counter(f"resilience.{name}")  # materialize at zero

    def open_episode(self, kind: str, target: str | None, now_s: float) -> None:
        """Record a fault being raised (idempotent per open (kind, target))."""
        for ep in self.episodes:
            if ep.open and ep.kind == kind and ep.target == target:
                return
        self.episodes.append(FaultEpisode(kind=kind, target=target, start_s=now_s))

    def close_episode(self, kind: str, target: str | None, now_s: float) -> None:
        """Record recovery of the matching open episode (no-op when absent)."""
        for ep in self.episodes:
            if ep.open and ep.kind == kind and ep.target == target:
                ep.end_s = now_s
                return

    def mttr_s(self) -> float | None:
        """Mean time to repair over closed episodes (``None`` when none)."""
        closed = [ep.duration_s for ep in self.episodes if not ep.open]
        if not closed:
            return None
        return sum(closed) / len(closed)

    def state_dict(self) -> dict:
        """Snapshot the full ledger, episode order included."""
        return {
            **{name: getattr(self, name) for name in self.COUNTER_FIELDS},
            "episodes": [
                {
                    "kind": ep.kind,
                    "target": ep.target,
                    "start_s": ep.start_s,
                    "end_s": ep.end_s,
                }
                for ep in self.episodes
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot exactly.

        Restores bypass the monotone ``inc`` path: a checkpoint may
        legitimately rewind a counter below its live value.
        """
        for name in self.COUNTER_FIELDS:
            self.registry.counter(f"resilience.{name}").reset(int(state[name]))
        self.episodes = [
            FaultEpisode(
                kind=ep["kind"],
                target=ep["target"],
                start_s=float(ep["start_s"]),
                end_s=None if ep["end_s"] is None else float(ep["end_s"]),
            )
            for ep in state["episodes"]
        ]


class TelemetryWatchdog:
    """Freshness tracker for the mediator's wall-power sensor.

    Feed one sample classification per tick with :meth:`observe`; read the
    current trust state from :attr:`degraded`. Transitions are reported so
    the mediator can journal F/R events exactly once.
    """

    def __init__(self) -> None:
        self._consecutive_bad = 0
        self._consecutive_good = 0
        self._degraded = False

    @property
    def degraded(self) -> bool:
        """Whether the wall-power feed is currently untrusted."""
        return self._degraded

    def state_dict(self) -> dict:
        """Snapshot the hysteresis counters and trust state."""
        return {
            "consecutive_bad": self._consecutive_bad,
            "consecutive_good": self._consecutive_good,
            "degraded": self._degraded,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot exactly."""
        self._consecutive_bad = int(state["consecutive_bad"])
        self._consecutive_good = int(state["consecutive_good"])
        self._degraded = bool(state["degraded"])

    def observe(self, fresh: bool) -> str | None:
        """Classify one tick's sample.

        Args:
            fresh: Whether the sample reflects the current tick.

        Returns:
            ``"degraded"`` on the healthy->degraded transition,
            ``"recovered"`` on the way back, else ``None``.
        """
        if fresh:
            self._consecutive_good += 1
            self._consecutive_bad = 0
            if self._degraded and self._consecutive_good >= RECOVERY_THRESHOLD:
                self._degraded = False
                return "recovered"
            return None
        self._consecutive_bad += 1
        self._consecutive_good = 0
        if not self._degraded and self._consecutive_bad >= STALE_THRESHOLD:
            self._degraded = True
            return "degraded"
        return None


@dataclass
class _RetryState:
    desired: KnobSetting
    attempts: int
    next_retry_tick: int


class ActuationRetrier:
    """Exponential-backoff retry of failed knob writes, with escalation.

    The knob controller verifies every write by readback and parks failures
    in its registry; the mediator calls :meth:`service` once per tick. Each
    failed write is retried after 1, 2, 4, ... ticks; after
    ``MAX_ACTUATION_ATTEMPTS`` total attempts the app is suspended -
    signals bypass the faulted RAPL path, so suspension always sticks and
    the cap stays defensible.
    """

    def __init__(self, knobs: KnobController) -> None:
        self._knobs = knobs
        # Jitter stays off here: a single server's retrier has nothing to
        # decorrelate from, and the golden traces pin the 1, 2, 4, ... ticks.
        self._policy = RetryPolicy(
            base_ticks=1, max_attempts=MAX_ACTUATION_ATTEMPTS, jitter_ticks=0
        )
        self._pending: dict[str, _RetryState] = {}
        self._tick = 0

    def state_dict(self) -> dict:
        """Snapshot the backoff schedule (tick counter included, since the
        ``next_retry_tick`` deadlines are absolute)."""
        return {
            "tick": self._tick,
            "pending": {
                app: {
                    "desired": st.desired.to_json(),
                    "attempts": st.attempts,
                    "next_retry_tick": st.next_retry_tick,
                }
                for app, st in self._pending.items()
            },
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot exactly."""
        self._tick = int(state["tick"])
        self._pending = {
            app: _RetryState(
                desired=KnobSetting.from_json(st["desired"]),
                attempts=int(st["attempts"]),
                next_retry_tick=int(st["next_retry_tick"]),
            )
            for app, st in state["pending"].items()
        }

    def service(self, stats: FaultStats) -> tuple[list[str], list[str]]:
        """Run one tick of the retry loop.

        Returns:
            ``(verified, escalated)``: apps whose desired knob verified on a
            retry *this tick* (the caller may want to re-adopt the plan so
            they resume), and apps suspended after exhausting retries.
            Writes that cleared out-of-band (a later write verified, or the
            app departed) are dropped from the pending set silently - the
            caller tracks those through the failed-writes registry itself.
        """
        self._tick += 1
        failed_now = self._knobs.failed_writes()

        # Adopt newly failed writes (first retry next tick: backoff 2^0).
        for app, desired in failed_now.items():
            state = self._pending.get(app)
            if state is None or state.desired != desired:
                self._pending[app] = _RetryState(
                    desired=desired,
                    attempts=1,
                    next_retry_tick=self._tick + 1,
                )

        verified: list[str] = []
        escalated: list[str] = []
        for app in list(self._pending):
            state = self._pending[app]
            if app not in failed_now:
                # Cleared out-of-band: stop tracking.
                del self._pending[app]
                continue
            if self._tick < state.next_retry_tick:
                continue
            stats.actuation_retries += 1
            if self._knobs.set_knob(app, state.desired):
                verified.append(app)
                del self._pending[app]
                continue
            state.attempts += 1
            try:
                self._policy.require(state.attempts, what=f"knob write for {app}")
            except RetryExhaustedError:
                # Give up on RAPL: signals always work.
                self._knobs.suspend(app)
                self._knobs.clear_failed_write(app)
                stats.actuation_escalations += 1
                stats.registry.counter("retry.exhausted").inc()
                escalated.append(app)
                del self._pending[app]
            else:
                state.next_retry_tick = self._tick + self._policy.backoff_ticks(
                    state.attempts
                )
        return verified, escalated

    def forget(self, app: str) -> None:
        """Stop retrying for ``app`` (on departure)."""
        self._pending.pop(app, None)
