"""Application heartbeats: the performance-observation side of the framework.

The paper measures application performance with the open-source Application
Heartbeats interface [41]: an instrumented application emits a heartbeat per
unit of completed work, and observers read windowed heart *rates*. Our
simulated applications emit fractional heartbeats equal to the work completed
each tick; the monitor exposes the same windowed-rate query the real library
provides, plus cumulative counts for throughput accounting.

Measurement noise is optional and seeded, for the same reason as in
:mod:`repro.server.rapl`: the collaborative-filtering calibration (Fig. 7)
must be exercised against imperfect observations.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, SchedulingError


@dataclass(frozen=True)
class HeartbeatRecord:
    """One window entry: work completed in one tick.

    Attributes:
        time_s: Simulation time at the *end* of the tick.
        beats: Work units completed during the tick (fractional).
    """

    time_s: float
    beats: float


#: Length of the sliding window :meth:`HeartbeatMonitor.heart_rate` reads.
WINDOW_S = 2.0


class HeartbeatMonitor:
    """Windowed heart-rate monitor for the applications on one server.

    Args:
        noise_relative_std: Relative (multiplicative) gaussian noise applied
            to rate readings; zero for exact readings.
        seed: Noise generator seed.
    """

    def __init__(
        self,
        *,
        noise_relative_std: float = 0.0,
        seed: int = 0,
    ) -> None:
        if noise_relative_std < 0:
            raise ConfigurationError("noise_relative_std must be non-negative")
        self._noise = noise_relative_std
        self._rng = np.random.default_rng(seed)
        self._histories: dict[str, deque[HeartbeatRecord]] = {}
        self._blackout = False
        self._frozen_rates: dict[str, float] = {}
        self._last_emit_s: dict[str, float] = {}

    def register(self, app: str) -> None:
        """Start tracking ``app``.

        Raises:
            SchedulingError: if already registered.
        """
        if app in self._histories:
            raise SchedulingError(f"application {app!r} already registered for heartbeats")
        self._histories[app] = deque()

    def unregister(self, app: str) -> None:
        """Stop tracking ``app`` (on departure). Its window is discarded."""
        self._history_of(app)
        del self._histories[app]
        self._frozen_rates.pop(app, None)
        self._last_emit_s.pop(app, None)

    def registered(self) -> list[str]:
        """Currently tracked application names, sorted."""
        return sorted(self._histories)

    # ----------------------------------------------------------- persistence

    def state_dict(self) -> dict:
        """Snapshot registrations, windows, and the noise RNG."""
        return {
            "histories": {
                app: [[rec.time_s, rec.beats] for rec in history]
                for app, history in self._histories.items()
            },
            "blackout": self._blackout,
            "frozen_rates": dict(self._frozen_rates),
            "last_emit_s": dict(self._last_emit_s),
            "rng": self._rng.bit_generator.state,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot exactly.

        Replaces the full registration set: apps present only in the
        snapshot are (re-)registered, apps missing from it are dropped.
        """
        self._histories = {
            app: deque(
                HeartbeatRecord(time_s=float(t), beats=float(b)) for t, b in window
            )
            for app, window in state["histories"].items()
        }
        self._blackout = bool(state["blackout"])
        self._frozen_rates = {
            app: float(v) for app, v in state["frozen_rates"].items()
        }
        # Pre-hardening checkpoints lack emission clocks: reconstruct them
        # from the windows so duplicate-tick detection survives a restore.
        self._last_emit_s = {
            app: float(v) for app, v in state.get("last_emit_s", {}).items()
        }
        for app, history in self._histories.items():
            if history and app not in self._last_emit_s:
                self._last_emit_s[app] = history[-1].time_s
        self._rng.bit_generator.state = state["rng"]

    # ----------------------------------------------------------- engine side

    def emit(self, app: str, time_s: float, beats: float) -> None:
        """Engine hook: record ``beats`` work units completed by ``app``.

        Zero-beat ticks are recorded too - a suspended application's heart
        rate must decay to zero, which only happens if the window sees its
        silence.

        Raises:
            ConfigurationError: for NaN/non-finite/negative beat counts, a
                non-finite timestamp, or a report at or before the app's
                previous emission time (a duplicate-tick report would
                double-count progress silently; rejecting it makes the
                corruption loud).
        """
        if not math.isfinite(beats):
            raise ConfigurationError(f"non-finite heartbeat count {beats}")
        if beats < 0:
            raise ConfigurationError(f"negative heartbeat count {beats}")
        if not math.isfinite(time_s):
            raise ConfigurationError(f"non-finite heartbeat timestamp {time_s}")
        history = self._history_of(app)
        last = self._last_emit_s.get(app)
        if last is not None and time_s <= last:
            raise ConfigurationError(
                f"duplicate heartbeat report for {app!r} at {time_s} s "
                f"(already reported through {last} s)"
            )
        self._last_emit_s[app] = time_s
        history.append(HeartbeatRecord(time_s=time_s, beats=beats))
        cutoff = time_s - WINDOW_S
        while history and history[0].time_s <= cutoff:
            history.popleft()

    # ---------------------------------------------------------- fault surface

    def set_blackout(self, active: bool) -> None:
        """Enter or leave a telemetry blackout.

        During a blackout :meth:`heart_rate` serves the rate each app had
        when the blackout began (a stuck monitoring agent keeps reporting
        its cached value) instead of fresh window data. Engine-side
        :meth:`emit` keeps recording, so rates snap back to truth on
        recovery. Used by the fault injector; clients can also consult
        :attr:`in_blackout` to distrust readings.
        """
        if active and not self._blackout:
            self._frozen_rates = {app: self._fresh_rate(app) for app in self._histories}
        if not active:
            self._frozen_rates = {}
        self._blackout = active

    @property
    def in_blackout(self) -> bool:
        """Whether rate readings are currently frozen."""
        return self._blackout

    # ----------------------------------------------------------- client side

    def heart_rate(self, app: str) -> float:
        """Windowed work rate (beats/s) of ``app``, with optional noise.

        During a blackout (see :meth:`set_blackout`) this returns the stale
        pre-blackout rate; apps registered mid-blackout read as zero.
        """
        self._history_of(app)
        if self._blackout:
            return self._frozen_rates.get(app, 0.0)
        return self._fresh_rate(app)

    def exact_rate(self, app: str) -> float:
        """The windowed rate without measurement noise; draws no RNG.

        Monitoring-side cross-checks (the mediator's TrustScorer) use this
        so that enabling defenses never perturbs the noise stream a run
        with defenses disabled would consume. Blackout semantics match
        :meth:`heart_rate`.
        """
        self._history_of(app)
        if self._blackout:
            return self._frozen_rates.get(app, 0.0)
        return self._window_rate(app)

    def _window_rate(self, app: str) -> float:
        history = self._history_of(app)
        if not history:
            return 0.0
        span = max(WINDOW_S, history[-1].time_s - history[0].time_s)
        return sum(record.beats for record in history) / span

    def _fresh_rate(self, app: str) -> float:
        rate = self._window_rate(app)
        if self._noise == 0.0 or rate == 0.0:
            return rate
        return max(0.0, rate * (1.0 + float(self._rng.normal(0.0, self._noise))))

    def _history_of(self, app: str) -> deque[HeartbeatRecord]:
        try:
            return self._histories[app]
        except KeyError:
            raise SchedulingError(
                f"application {app!r} is not registered for heartbeats"
            ) from None
