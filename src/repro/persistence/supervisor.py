"""Supervised mediation: detect a dead or hung mediator and warm-restart it.

The :class:`Supervisor` owns the whole crash-tolerance loop. It drives a
mediator through a declarative *script* of commands (:class:`AdmitApp`,
:class:`SetCap`, :class:`Advance`), journaling each tick as it completes,
and checkpointing every ``checkpoint_every_ticks`` ticks through a
:class:`~repro.persistence.store.RunStore`. When the mediator dies
(:class:`MediatorKilled`, raised by a crash-injection hook or a real bug)
or hangs past the per-tick deadline (:class:`MediatorHung`), the supervisor

1. tears the journal's un-fsynced tail if asked to (simulating what a real
   crash does to buffered writes - fsynced bytes are never lost),
2. restores the newest marked checkpoint and **re-executes** the script
   from the position that checkpoint recorded, up to the tick count the
   durable journal reaches - everything is deterministic, so re-execution
   lands bit-identically on the pre-crash state (the script itself is the
   command log),
3. writes a *fresh* checkpoint, so repeated crashes always make forward
   progress, and
4. optionally holds the server in the PR 1 guard-banded safe posture
   (:meth:`~repro.core.mediator.PowerMediator.begin_safe_hold`) while trust
   in the restarted loop is re-established.

The tick hook runs before re-executed ticks too, so a kill can land inside
a recovery; it is recovered from like any other.

Recovery cost is tracked in :class:`RecoveryStats`, including the learning
state (calibration samples) that checkpoint restore saved from a cold
relearn.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.core.mediator import PowerMediator
from repro.errors import CheckpointError, ReproError
from repro.learning.sampling import Sampler
from repro.observability.trace import NULL_TRACE_BUS, TraceBus
from repro.persistence.checkpoint import RunRecipe
from repro.persistence.store import RunStore
from repro.schema import Validator
from repro.workloads.profiles import WorkloadProfile


_VALID = Validator(CheckpointError)

#: Journal tick-record durability cadence.
FSYNC_EVERY_TICKS = 25

#: Hard stop against a deterministically crashing loop.
MAX_RESTARTS = 50


class MediatorKilled(ReproError):
    """The mediator process died mid-tick (raised by crash injection)."""


class MediatorHung(ReproError):
    """A mediator tick overran the supervisor's liveness deadline."""


# --------------------------------------------------------------------- script


@dataclass(frozen=True)
class AdmitApp:
    """Script command: admit one application (mediator event E2)."""

    profile: WorkloadProfile


@dataclass(frozen=True)
class SetCap:
    """Script command: change the PSys cap (mediator event E1)."""

    p_cap_w: float


@dataclass(frozen=True)
class Advance:
    """Script command: run the mediation loop for a stretch of sim time."""

    duration_s: float


Command = AdmitApp | SetCap | Advance


# ---------------------------------------------------------------- accounting


@dataclass
class RecoveryStats:
    """Counters describing what crash recovery cost - and what it saved.

    Attributes:
        restarts: Warm restarts performed: every kill and hang recovered
            from, including one that lands inside a recovery.
        hangs_detected: Restarts triggered by the tick deadline rather
            than outright death.
        downtime_ticks: Ticks re-executed because they happened after the
            checkpoint a recovery restored.
        journal_records_replayed: Journal tick records past
            the restored checkpoints' markers, across all recoveries.
        checkpoints_written: Snapshots written, including the post-recovery
            ones.
        samples_restored: Calibration samples that arrived intact inside
            checkpoints instead of being re-measured.
        cold_relearns_avoided: Per-application calibrations that restore
            made unnecessary (one per managed app per recovery, for
            learning policies).
    """

    restarts: int = 0
    hangs_detected: int = 0
    downtime_ticks: int = 0
    journal_records_replayed: int = 0
    checkpoints_written: int = 0
    samples_restored: int = 0
    cold_relearns_avoided: int = 0


@dataclass
class _Position:
    """Where script execution stands: the command index, plus - when that
    command is an in-progress ``Advance`` - its absolute deadline."""

    command: int = 0
    end_s: float | None = None

    @classmethod
    def from_state(cls, state: dict, commands: int) -> "_Position":
        """The position a checkpoint recorded, validated key by key.

        Raises:
            CheckpointError: naming the JSON path of a missing key, a value
                of the wrong type, or a command index outside the script.
        """
        where = "checkpoint.supervisor"
        command = _VALID.as_int(_VALID.require(state, "command", where), f"{where}.command")
        if not 0 <= command <= commands:
            _VALID.fail(f"{where}.command", f"{command} is outside a {commands}-command script")
        end_s = _VALID.require(state, "end_s", where)
        if end_s is not None:
            end_s = _VALID.as_number(end_s, f"{where}.end_s")
        return cls(command, end_s)



# ---------------------------------------------------------------- supervisor


class Supervisor:
    """Runs a script against a crash-prone mediator, restarting as needed.

    Args:
        recipe: How to (re)build the mediator; also stamped into every
            checkpoint so a restore never depends on live objects.
        script: The commands to execute, in order.
        workdir: Directory receiving the journal (``journal/``) and the
            checkpoints (``checkpoints/``); see
            :class:`~repro.persistence.store.RunStore`.
        checkpoint_every_ticks: Snapshot cadence during ``Advance``.
        tick_deadline_s: Wall-clock budget for one mediator tick; ``None``
            disables hang detection.
        tick_hook: Called as ``tick_hook(mediator, tick_count)`` before
            every tick, re-executed ones included - the chaos harness
            raises :class:`MediatorKilled` from here.
        safe_hold_ticks: Guard-banded safe-posture length applied after
            each warm restart (0 keeps restarts bit-identical).
        tear_journal_bytes_on_crash: On each crash, drop up to this many
            bytes from the journal tail - clamped so fsynced bytes never
            disappear - to exercise the torn-tail rule.
        trace_bus: Optional trace sink. The supervisor attaches it to every
            mediator incarnation, and the store records the bus mark
            alongside each checkpoint and truncates to the restored
            checkpoint's mark on recovery - so the stitched sim stream
            hashes identically to an uninterrupted run (when
            ``safe_hold_ticks`` is 0). Crash/restore forensics land in the
            trace as meta events, outside the hash.
    """

    def __init__(
        self,
        recipe: RunRecipe,
        script: list[Command],
        workdir: str | Path,
        *,
        checkpoint_every_ticks: int = 50,
        tick_deadline_s: float | None = None,
        tick_hook: Callable[[PowerMediator, int], None] | None = None,
        safe_hold_ticks: int = 0,
        tear_journal_bytes_on_crash: int = 0,
        trace_bus: TraceBus | None = None,
    ) -> None:
        self._recipe = recipe
        self._script = list(script)
        self._workdir = Path(workdir)
        self._checkpoint_every_ticks = checkpoint_every_ticks
        self._tick_deadline_s = tick_deadline_s
        self._tick_hook = tick_hook
        self._safe_hold_ticks = safe_hold_ticks
        self._tear_bytes = tear_journal_bytes_on_crash
        self._stats = RecoveryStats()
        self._mediator: PowerMediator | None = None
        self._store: RunStore | None = None
        self._pos = _Position()
        self._ticks_since_checkpoint = 0
        self._trace = NULL_TRACE_BUS if trace_bus is None else trace_bus

    @property
    def stats(self) -> RecoveryStats:
        return self._stats

    def run(self) -> PowerMediator:
        """Execute the whole script, surviving kills and hangs.

        Returns:
            The mediator that completed the final command (after any number
            of warm restarts).

        Raises:
            CheckpointError: if recovery exceeds :data:`MAX_RESTARTS`.
        """
        self._mediator = self._recipe.build(trace_bus=self._trace)
        self._store = RunStore(
            self._workdir,
            self._recipe,
            owner="supervisor",
            bus=self._trace,
            fsync_every_ticks=FSYNC_EVERY_TICKS,
            tear_journal_bytes_on_crash=self._tear_bytes,
        )
        self._checkpoint()
        while True:
            try:
                if self._store.journal is None:
                    self._recover()
                self._execute()
                break
            except (MediatorKilled, MediatorHung) as exc:
                if isinstance(exc, MediatorHung):
                    self._stats.hangs_detected += 1
                if self._stats.restarts >= MAX_RESTARTS:
                    raise CheckpointError(
                        f"gave up after {self._stats.restarts} restarts: {exc}"
                    ) from exc
                self._trace.emit_meta(
                    "crash",
                    {
                        "reason": "hang" if isinstance(exc, MediatorHung) else "kill",
                        "restarts_so_far": self._stats.restarts,
                    },
                )
                self._store.crash()
                self._stats.restarts += 1
        self._store.journal.close()
        return self._mediator

    # ----------------------------------------------------------- execution

    def _execute(self, stop: int | None = None) -> None:
        """Run the script from the current position to its end - or, while
        recovery re-executes, until the mediator has completed ``stop``
        ticks. A command that falls at ``stop`` waits for the reopened
        journal."""
        mediator = self._mediator
        assert mediator is not None
        while self._pos.command < len(self._script):
            if stop is not None and mediator.tick_count >= stop:
                return
            index = self._pos.command
            command = self._script[index]
            if isinstance(command, Advance):
                if self._pos.end_s is None:
                    # The deadline is fixed once per command and carried in
                    # checkpoints; recomputing it mid-command could drift.
                    end_s = mediator.server.now_s + command.duration_s
                    self._pos = _Position(command=index, end_s=end_s)
                if not self._advance(self._pos.end_s, stop):
                    return
            else:
                self._apply(command)
            self._pos = _Position(command=index + 1, end_s=None)
        if stop is None:
            self._checkpoint()

    def _advance(self, end_s: float, stop: int | None) -> bool:
        """Tick the mediator up to ``end_s`` (mirrors ``run_for``'s loop).
        Returns False when re-execution reached ``stop`` first."""
        mediator, store = self._mediator, self._store
        assert mediator is not None and store is not None
        while mediator.server.now_s < end_s - 1e-9:
            if stop is not None and mediator.tick_count >= stop:
                return False
            if self._tick_hook is not None:
                self._tick_hook(mediator, mediator.tick_count)
            started = time.monotonic()
            mediator.step()
            if (
                self._tick_deadline_s is not None
                and time.monotonic() - started > self._tick_deadline_s
            ):
                # Do NOT journal the overrun tick: recovery re-executes to
                # the previous durable tick and redoes this one from scratch.
                raise MediatorHung(
                    f"tick {mediator.tick_count} exceeded the "
                    f"{self._tick_deadline_s:.3f} s deadline"
                )
            if store.journal is None:
                self._stats.downtime_ticks += 1
                continue
            store.journal.append_tick(mediator.tick_count)
            self._ticks_since_checkpoint += 1
            if self._ticks_since_checkpoint >= self._checkpoint_every_ticks:
                self._checkpoint()
        return True

    def _apply(self, command: Command) -> None:
        assert self._mediator is not None
        if isinstance(command, AdmitApp):
            self._mediator.add_application(command.profile)
        elif isinstance(command, SetCap):
            self._mediator.set_power_cap(command.p_cap_w)
        else:  # pragma: no cover - Advance is handled by _execute
            raise TypeError(f"cannot apply {command!r}")

    def _checkpoint(self) -> None:
        assert self._mediator is not None and self._store is not None
        self._store.checkpoint(self._mediator, dataclasses.asdict(self._pos))
        self._ticks_since_checkpoint = 0
        self._stats.checkpoints_written += 1

    # ------------------------------------------------------------ recovery

    def _recover(self) -> None:
        """Warm restart: restore the newest marked checkpoint, re-execute the
        script up to the ticks the durable journal holds, journal afresh."""
        assert self._store is not None
        restored = self._store.recover()
        self._pos = _Position.from_state(restored.state, len(self._script))
        self._mediator = restored.mediator
        self._credit_restored_learning()
        self._stats.journal_records_replayed += restored.records
        self._execute(stop=restored.reach)
        self._store.reopen()
        # A fresh snapshot caps the re-execution a *second* crash would need
        # and guarantees forward progress under repeated failures.
        self._checkpoint()
        self._mediator.begin_safe_hold(self._safe_hold_ticks)

    def _credit_restored_learning(self) -> None:
        """Account for the calibration state the checkpoint carried over."""
        assert self._mediator is not None
        if not self._mediator.policy.needs_learning:
            return
        if self._recipe.use_oracle_estimates:
            return
        apps = self._mediator.managed_apps()
        if not apps:
            return
        per_app = Sampler.budget_from_fraction(
            self._mediator.server.config, self._mediator.sampler.fraction
        )
        self._stats.cold_relearns_avoided += len(apps)
        self._stats.samples_restored += len(apps) * per_app
