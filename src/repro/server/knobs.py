"""Knob actuation: the simulated ``cpupower`` / ``taskset`` / DRAM-RAPL /
``kill -STOP|-CONT`` surface.

The paper enforces allocations with four Linux mechanisms (Section III-B):

* ``cpupower frequency-set`` - per-core DVFS (the ``f`` knob);
* ``taskset`` - core consolidation (the ``n`` knob);
* DRAM RAPL sysfs - per-DIMM power allocation (the ``m`` knob);
* ``SIGSTOP`` / ``SIGCONT`` - suspending and resuming applications for
  temporal coordination.

:class:`KnobController` is the single mutation point for all four. Policies
never poke the server state directly; they produce desired settings and the
controller validates and applies them, mirroring how the real framework shells
out to the OS tools. It also forwards DRAM allocations to the RAPL interface
so the capping domain limits stay consistent with what the policy requested.

Fault surface
-------------

Real sysfs knob writes fail: the write races a firmware update, the MSR is
stuck, or the value read back is a cached pre-write one. The controller
models this with two injectable hooks:

* ``actuation_hook(app, requested, current) -> applied | None`` - decides
  what actually lands when a knob is written (``None`` = write dropped);
* ``readback_hook(app, true_knob) -> reported`` - what a client sees when it
  reads the knob back (stale-readback faults lie here).

:meth:`KnobController.set_knob` *verifies* every write by readback and
returns ``False`` when the observed setting differs from the request; failed
writes are parked in a registry that the mediator's actuation retrier drains
with exponential backoff. ``suspend``/``resume`` are signal-based
(``SIGSTOP``/``SIGCONT``) and deliberately bypass both hooks - that is the
emergency path's guarantee when RAPL actuation is down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.engine.surface import grid_for
from repro.errors import KnobError, SchedulingError
from repro.server.config import KnobSetting, ServerConfig
from repro.server.rapl import RaplInterface
from repro.server.topology import ServerTopology


def hardware_throttle_path(config: ServerConfig) -> list[KnobSetting]:
    """The fixed order in which hardware enforcement sheds power.

    1. DVFS steps down (all cores, full DRAM) - what package RAPL does;
    2. core reduction at the floor frequency (idle injection, as Linux's
       ``intel_powerclamp`` does when DVFS alone cannot meet the limit);
    3. DRAM allocation steps down at the minimum compute configuration.

    The path is identical for every application - that blindness is what
    distinguishes hardware capping (and the paper's baselines, which use
    it) from the utility-aware schemes.
    """
    freqs = config.frequencies_ghz
    nmax, mmax = config.cores_max, config.dram_power_max_w
    path = [KnobSetting(f, nmax, mmax) for f in reversed(freqs)]
    path += [
        KnobSetting(freqs[0], n, mmax)
        for n in range(nmax - 1, config.cores_min - 1, -1)
    ]
    path += [
        KnobSetting(freqs[0], config.cores_min, m)
        for m in reversed(config.dram_powers_w[:-1])
    ]
    return path


@dataclass
class AppControlState:
    """Mutable actuation state of one admitted application.

    Attributes:
        knob: Current ``(f, n, m)`` setting.
        suspended: ``True`` while the app is SIGSTOPped (draws no dynamic
            power, makes no progress, and its private-cache state decays).
    """

    knob: KnobSetting
    suspended: bool = False


class KnobController:
    """Validated actuation of per-application power knobs.

    Args:
        config: The knob space to validate against.
        topology: Core-group reservations; consolidation cannot exceed an
            app's reserved group width.
        rapl: RAPL interface whose per-socket DRAM domains receive the ``m``
            limits.
    """

    def __init__(
        self,
        config: ServerConfig,
        topology: ServerTopology,
        rapl: RaplInterface,
    ) -> None:
        self._config = config
        #: The knob space's points, for an O(1) exact-match validation.
        self._grid_index = grid_for(config).index
        self._topology = topology
        self._rapl = rapl
        self._states: dict[str, AppControlState] = {}
        #: Fault hooks (installed by a FaultInjector, None when healthy).
        self.actuation_hook: Optional[
            Callable[[str, KnobSetting, KnobSetting], Optional[KnobSetting]]
        ] = None
        self.readback_hook: Optional[Callable[[str, KnobSetting], KnobSetting]] = None
        self._failed_writes: dict[str, KnobSetting] = {}

    # ------------------------------------------------------------ lifecycle

    def attach(self, app: str, initial: KnobSetting | None = None) -> AppControlState:
        """Begin controlling ``app`` (it must already hold a core group).

        Args:
            app: Application name.
            initial: Starting knob; defaults to the uncapped maximum.

        Raises:
            SchedulingError: if already attached or not admitted.
        """
        if app in self._states:
            raise SchedulingError(f"application {app!r} is already attached")
        self._topology.group_of(app)  # raises SchedulingError when absent
        knob = initial if initial is not None else self._config.max_knob
        self._validate(app, knob)
        state = AppControlState(knob=knob)
        self._states[app] = state
        self._push_dram_limit(app)
        return state

    def detach(self, app: str) -> None:
        """Stop controlling ``app`` (on departure)."""
        self._state_of(app)
        del self._states[app]
        self._failed_writes.pop(app, None)

    def attached(self) -> list[str]:
        """Names under control, sorted."""
        return sorted(self._states)

    # ---------------------------------------------------------- persistence

    def state_dict(self) -> dict:
        """Snapshot per-app control state and the failed-write registry.

        Fault hooks are *not* captured - they are closures owned by the
        fault injector, which reinstalls them after its own restore.
        """
        return {
            "states": {
                app: {"knob": state.knob.to_json(), "suspended": state.suspended}
                for app, state in self._states.items()
            },
            "failed_writes": {
                app: knob.to_json() for app, knob in self._failed_writes.items()
            },
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot exactly.

        Settings are written directly, bypassing :meth:`set_knob`: actuation
        hooks must not fire during a restore, and the DRAM RAPL limits are
        restored verbatim by the RAPL interface's own snapshot rather than
        re-derived here.
        """
        self._states = {
            app: AppControlState(
                knob=KnobSetting.from_json(fields["knob"]),
                suspended=bool(fields["suspended"]),
            )
            for app, fields in state["states"].items()
        }
        self._failed_writes = {
            app: KnobSetting.from_json(raw)
            for app, raw in state["failed_writes"].items()
        }

    # ------------------------------------------------------------ actuation

    def set_knob(self, app: str, knob: KnobSetting) -> bool:
        """Apply a full ``(f, n, m)`` setting to ``app`` and verify it.

        Equivalent to one ``cpupower`` + one ``taskset`` + one DRAM-RAPL
        write followed by a readback. Raises
        :class:`~repro.errors.KnobError` for settings outside the discrete
        knob space or beyond the app's reserved core group.

        Returns:
            ``True`` when the readback matches the request; ``False`` when
            the write was dropped, landed partially, or reads back stale
            (the desired setting is then parked in :meth:`failed_writes`
            for the retry machinery).
        """
        self._validate(app, knob)
        state = self._state_of(app)
        applied: KnobSetting | None = knob
        if self.actuation_hook is not None:
            applied = self.actuation_hook(app, knob, state.knob)
        if applied is not None:
            state.knob = applied
        self._push_dram_limit(app)
        if self.readback(app) == knob:
            self._failed_writes.pop(app, None)
            return True
        self._failed_writes[app] = knob
        return False

    def suspend(self, app: str) -> None:
        """``SIGSTOP`` the app: it stops drawing dynamic power and making
        progress. Idempotent."""
        self._state_of(app).suspended = True

    def resume(self, app: str) -> None:
        """``SIGCONT`` the app. Idempotent."""
        self._state_of(app).suspended = False

    # ------------------------------------------------------------- queries

    def knob_of(self, app: str) -> KnobSetting:
        """True current setting of ``app`` (the engine-side ground truth)."""
        return self._state_of(app).knob

    def readback(self, app: str) -> KnobSetting:
        """Client-visible setting of ``app`` (what a sysfs read returns).

        Identical to :meth:`knob_of` on a healthy controller; under a
        stale-readback fault it may lag the true setting.
        """
        true = self._state_of(app).knob
        if self.readback_hook is not None:
            return self.readback_hook(app, true)
        return true

    def failed_writes(self) -> dict[str, KnobSetting]:
        """Desired settings whose last write did not verify, by app name."""
        return dict(self._failed_writes)

    def clear_failed_write(self, app: str) -> None:
        """Drop ``app`` from the failed-writes registry (give up retrying)."""
        self._failed_writes.pop(app, None)

    def is_suspended(self, app: str) -> bool:
        """Whether ``app`` is currently SIGSTOPped."""
        return self._state_of(app).suspended

    def running_apps(self) -> list[str]:
        """Attached apps that are not suspended, sorted."""
        return sorted(name for name, s in self._states.items() if not s.suspended)

    # ------------------------------------------------------------- internal

    def _state_of(self, app: str) -> AppControlState:
        try:
            return self._states[app]
        except KeyError:
            raise SchedulingError(f"application {app!r} is not attached") from None

    def _validate(self, app: str, knob: KnobSetting) -> None:
        # An exact grid point needs no scan; anything else gets the
        # config's tolerance check, which accepts near misses and words
        # the error.
        if knob not in self._grid_index:
            self._config.validate_knob(knob)
        group = self._topology.group_of(app)
        if knob.cores > group.width:
            raise KnobError(
                f"{app!r} asked for {knob.cores} cores but its core group "
                f"has width {group.width}"
            )

    def _push_dram_limit(self, app: str) -> None:
        """Mirror the app's ``m`` into its socket's DRAM RAPL domain.

        When two apps share a socket, the domain limit is the sum of their
        allocations (each app's share is enforced by the model's per-app
        bandwidth accounting; the physical domain caps the DIMM total).
        """
        group = self._topology.group_of(app)
        total = 0.0
        for name in self._topology.apps_on_socket(group.socket):
            if name in self._states:
                total += self._states[name].knob.dram_power_w
        self._rapl.set_power_limit(f"dram-{group.socket}", total if total > 0 else None)
