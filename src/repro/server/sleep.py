"""Core and package sleep states, with wake latencies.

The paper's temporal coordination relies on two hardware facilities:

* **core power gating** - consolidating an application onto fewer cores
  power-gates the rest (the ``n`` knob); this is instantaneous at the
  simulation's time scale;
* **package deep sleep (PC6)** - during the collective OFF periods of the
  ESD-aware coordinator, all sockets enter PC6, dropping chip-maintenance
  power to zero; wake-up costs hundreds of microseconds (paper reference
  [47]), which the engine charges as lost work time on the first tick after
  wake.

:class:`SleepController` tracks the package state machine and accounts wake
penalties. It deliberately refuses transitions that physical hardware refuses
(entering PC6 with runnable tasks).
"""

from __future__ import annotations

import enum

from repro.errors import ConfigurationError, SimulationError
from repro.server.config import ServerConfig


class SleepState(enum.Enum):
    """Package-level power state of the server's sockets (collectively).

    The paper's platform supports *coordinated* socket sleep: PC6 is entered
    by all sockets together when applications collectively go OFF, so a single
    state machine suffices.
    """

    ACTIVE = "active"  # at least one core may run; P_cm is drawn
    PC6 = "pc6"  # all sockets deep-sleeping; P_cm is zero


class SleepController:
    """Package sleep state machine with wake-latency accounting.

    Args:
        config: Provides the PC6 wake latency.
    """

    def __init__(self, config: ServerConfig) -> None:
        self._config = config
        self._state = SleepState.ACTIVE
        self._pending_wake_penalty_s = 0.0

    @property
    def state(self) -> SleepState:
        return self._state

    @property
    def in_deep_sleep(self) -> bool:
        """``True`` while the package is in PC6 (``P_cm == 0``)."""
        return self._state is SleepState.PC6

    @property
    def waking(self) -> bool:
        """Whether wake latency is still queued against the coming ticks."""
        return self._pending_wake_penalty_s != 0.0

    def state_dict(self) -> dict:
        """Snapshot the sleep state machine for checkpointing."""
        return {
            "state": self._state.value,
            "pending_wake_penalty_s": self._pending_wake_penalty_s,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot exactly."""
        self._state = SleepState(state["state"])
        self._pending_wake_penalty_s = float(state["pending_wake_penalty_s"])

    def enter_pc6(self, runnable_apps: int) -> None:
        """Put all sockets into PC6.

        Args:
            runnable_apps: Number of applications currently *executing*.
                Must be zero - hardware will not enter package sleep with
                busy cores; the coordinator must suspend everything first.

        Raises:
            SimulationError: when called with running applications.
        """
        if runnable_apps > 0:
            raise SimulationError(
                f"cannot enter PC6 with {runnable_apps} application(s) executing"
            )
        if self._state is SleepState.PC6:
            return
        self._state = SleepState.PC6

    def wake(self) -> float:
        """Wake the package; returns the wake latency charged (seconds).

        The latency is also queued so :meth:`consume_wake_penalty` can charge
        it against the first post-wake tick's useful work.
        """
        if self._state is SleepState.ACTIVE:
            return 0.0
        self._state = SleepState.ACTIVE
        latency = self._config.pc6_wake_latency_s
        self._pending_wake_penalty_s += latency
        return latency

    def consume_wake_penalty(self, dt_s: float) -> float:
        """Return the fraction of ``dt_s`` usable for work after wake costs.

        The engine calls this once per tick; pending wake latency eats into
        the tick (never below zero - a latency longer than the tick spills
        into subsequent ticks).

        Raises:
            ConfigurationError: for a non-positive tick.
        """
        if dt_s <= 0:
            raise ConfigurationError("tick duration must be positive")
        if self._pending_wake_penalty_s <= 0.0:
            return 1.0
        consumed = min(self._pending_wake_penalty_s, dt_s)
        self._pending_wake_penalty_s -= consumed
        return (dt_s - consumed) / dt_s
