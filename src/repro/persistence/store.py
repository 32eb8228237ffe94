"""One crash-recovery core: the journal, the checkpoints and the trace marks.

A :class:`RunStore` owns everything a crash-recoverable run keeps for its
own restart, laid out under one work directory::

    workdir/journal/                  journal-<start_seq>.jsonl segments
    workdir/checkpoints/ckpt-<tick>.json
    workdir/checkpoints/history.jsonl

plus, in memory, the trace-bus mark taken with every checkpoint this process
wrote. The :class:`~repro.persistence.supervisor.Supervisor` and the
:class:`~repro.service.loop.MediatorService` both drive one, and both follow
the same recovery rule:

1. :meth:`RunStore.crash` aborts the journal as a crash would, tearing up to
   a configured number of un-fsynced tail bytes;
2. :meth:`RunStore.recover` trims a torn tail, restores the newest marked
   checkpoint, truncates the trace bus to that checkpoint's mark, emits
   ``restore``, and returns how many ticks the durable tick records reach;
3. the caller **re-executes** its own ticks up to that count while
   :attr:`RunStore.journal` is ``None`` - everything it does is a
   deterministic function of the restored state, so re-execution
   regenerates exactly what the crash destroyed, and nothing is journaled
   twice for ticks the journal already holds;
4. :meth:`RunStore.reopen` resumes journaling at the next fresh sequence
   number and emits ``replayed``; the caller then writes a fresh checkpoint,
   so repeated crashes always make forward progress.

A checkpoint costs what changed since the previous one: the store keeps
one cursor per history (timeline records, accountant events and departures
already in the log, and per client session the next delivery seq not yet
logged), passes them to the codecs as "from" cursors, and appends only what
lies past them to the history log (see :mod:`repro.persistence.checkpoint`
for its line kinds). Recovery resets the cursors to what the restored
document covers.

The three meta events have one payload each: ``checkpoint`` carries
``tick`` and ``path``; ``restore`` carries ``tick``, ``checkpoint`` and
``dropped_events``; ``replayed`` carries the ``ticks`` re-executed and the
journal ``records`` past the restored marker. ``crash`` stays with the
caller, which knows the reason.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from repro.core.mediator import PowerMediator
from repro.errors import CheckpointError
from repro.observability.trace import NULL_TRACE_BUS, TraceBus
from repro.persistence.checkpoint import (
    CHECKPOINT_SCHEMA,
    CHECKPOINT_VERSION,
    HISTORY_LOG,
    RunRecipe,
    checkpoint_filename,
    read_checkpoint,
    restore_mediator,
)
from repro.persistence.journal import (
    JournalWriter,
    list_segments,
    read_journal,
    repair_torn_tail,
)

if TYPE_CHECKING:
    from repro.service.sessions import SessionRegistry

__all__ = ["Restored", "RunStore"]

_LINE_ENCODER = json.JSONEncoder(separators=(",", ":"))


class Restored(NamedTuple):
    """What :meth:`RunStore.recover` hands back to its caller.

    Attributes:
        mediator: The mediator restored from the newest marked checkpoint,
            re-attached to the store's trace bus.
        state: The caller's own state from that checkpoint's document.
        reach: Ticks completed that the durable journal vouches for; the
            caller re-executes from ``mediator.tick_count`` up to here.
        records: Journal records past the restored checkpoint's marker.
        sessions: The client sessions' state, windows refilled from the
            history log, for a caller that checkpoints sessions; else
            ``None``.
    """

    mediator: PowerMediator
    state: dict
    reach: int
    records: int
    sessions: dict | None


class RunStore:
    """The durable side of one crash-recoverable mediated run.

    Args:
        workdir: Durability root; ``journal/`` and ``checkpoints/`` land in
            it. A fresh store starts a fresh run: it deletes the journal
            segments and checkpoint documents (``.tmp`` files included) an
            earlier run left there and starts an empty history log.
        recipe: Stamped into every checkpoint document, so a restore never
            depends on live objects.
        owner: The document key the caller's own state rides under.
        bus: Trace sink for the marks and the meta events.
        fsync_every_ticks: Journal tick-record durability cadence.
        records_per_segment: Journal rotation threshold.
        tear_journal_bytes_on_crash: On each crash, drop up to this many
            bytes from the journal tail - clamped so fsynced bytes never
            disappear - to exercise the torn-tail rule.
    """

    def __init__(
        self,
        workdir: str | Path,
        recipe: RunRecipe,
        *,
        owner: str,
        bus: TraceBus = NULL_TRACE_BUS,
        fsync_every_ticks: int = 25,
        records_per_segment: int = 4096,
        tear_journal_bytes_on_crash: int = 0,
    ) -> None:
        workdir = Path(workdir)
        self.journal_dir = workdir / "journal"
        self.checkpoint_dir = workdir / "checkpoints"
        self._log = self.checkpoint_dir / HISTORY_LOG
        # Recovery reads every segment and the newest marker in them: what
        # an earlier run left here would be read as this run's history.
        stale = [
            *list_segments(self.journal_dir),
            *self.checkpoint_dir.glob("ckpt-*.json"),
            *self.checkpoint_dir.glob("ckpt-*.json.tmp"),
        ]
        try:
            for path in stale:
                path.unlink()
            self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
            self._log.write_bytes(b"")
        except OSError as exc:
            raise CheckpointError(f"cannot start a fresh run in {workdir}: {exc}") from None
        self._lines = 0  # history log lines so far
        # Items of each mediator history already in the log, and per client
        # session the first delivery seq not yet logged.
        self._logged = {"tick": 0, "event": 0, "finished": 0}
        self._delivered: dict[int, int] = {}
        self._recipe = recipe.to_dict()
        self._owner = owner
        self._bus = bus
        self._journal_args = {
            "records_per_segment": records_per_segment,
            "fsync_every_ticks": fsync_every_ticks,
        }
        self._tear_bytes = tear_journal_bytes_on_crash
        # Checkpoint file name -> bus mark (the seq the next sim event gets)
        # at snapshot time. In memory only: a restart that outlives the
        # process also restarts the trace.
        self._marks: dict[str, int] = {}
        self._resume: tuple[int, dict] = (0, {})  # next seq, replayed payload
        #: Journal seq and bus mark of the newest durable checkpoint:
        #: retention may prune and seal everything before them.
        self.safe_seq = 0
        self.safe_mark: int | None = None
        #: The open journal; ``None`` between :meth:`crash` and :meth:`reopen`.
        self.journal: JournalWriter | None = JournalWriter(
            self.journal_dir, **self._journal_args
        )
        self.journal.append_meta(dt_s=recipe.dt_s)

    def checkpoint(
        self,
        mediator: PowerMediator,
        state: dict,
        sessions: SessionRegistry | None = None,
    ) -> str:
        """Write a checkpoint of ``mediator`` (and ``sessions``, when the
        caller has any) plus the caller's ``state``.

        The history items made since the previous checkpoint are appended
        to the log and fsynced before the document that counts them; the
        document lands atomically; its journal marker is fsynced last.
        Returns the document's file name.

        Raises:
            CheckpointError: when the log or the document cannot be written.
        """
        assert self.journal is not None, "checkpoint while the journal is down"
        tick = mediator.tick_count
        logged = self._logged
        mediator_state = mediator.state_dict(
            timeline_from=logged["tick"],
            events_from=logged["event"],
            finished_from=logged["finished"],
        )
        sessions_state = (
            None if sessions is None else sessions.state_dict(windows_from=self._delivered)
        )
        new = {
            "tick": mediator_state.pop("timeline"),
            "event": mediator_state["accountant"].pop("log"),
            "finished": mediator_state.pop("finished"),
            "delivery": [
                {"client": session["client"], **delivery}
                for session in ([] if sessions_state is None else sessions_state["sessions"])
                for delivery in session.pop("window")
            ],
        }
        lines = [
            _LINE_ENCODER.encode({"kind": kind, "data": item}) + "\n"
            for kind, items in new.items()
            for item in items
        ]
        try:
            with open(self._log, "a", encoding="utf-8") as handle:
                handle.writelines(lines)
                handle.flush()
                os.fsync(handle.fileno())
        except OSError as exc:
            raise CheckpointError(
                f"cannot append to history log {self._log}: {exc}"
            ) from None
        self._lines += len(lines)
        for kind in logged:
            logged[kind] += len(new[kind])
        if sessions_state is not None:
            self._delivered = _next_seqs(sessions_state)
        doc = {
            "schema": CHECKPOINT_SCHEMA,
            "version": CHECKPOINT_VERSION,
            "tick": tick,
            "sim_time_s": mediator.server.now_s,
            "recipe": self._recipe,
            "state": mediator_state,
            "sessions": sessions_state,
            "history_lines": self._lines,
            self._owner: state,
        }
        name = checkpoint_filename(tick)
        path = self.checkpoint_dir / name
        tmp = path.with_name(name + ".tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(doc))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except OSError as exc:
            raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from None
        # The mark pins the sim-event prefix this snapshot captured; recovery
        # truncates back to it before re-execution re-emits the rest.
        self.safe_mark = self._marks[name] = self._bus.mark()
        self.journal.append_checkpoint(tick=tick, path=name)
        self.safe_seq = self.journal.next_seq - 1
        self._bus.emit_meta("checkpoint", {"tick": tick, "path": name})
        return name

    def crash(self) -> None:
        """Close the journal the way a crash would: buffered writes may be
        torn, fsynced bytes survive. A no-op while the journal is down (a
        kill during re-execution)."""
        if self.journal is None:
            return
        durable = self.journal.durable_offset
        segment = self.journal.current_segment
        self.journal.abort()
        self.journal = None
        if self._tear_bytes > 0:
            size = segment.stat().st_size
            keep = max(durable, size - self._tear_bytes)
            if keep < size:
                os.truncate(segment, keep)

    def recover(self) -> Restored:
        """Restore the newest marked checkpoint and say how far to re-execute.

        Raises:
            CheckpointError: when the journal holds no checkpoint marker, or
                the document or its history log fail validation.
            JournalError: on interior journal damage.
        """
        assert self.journal is None, "recover() without a crash()"
        repair_torn_tail(self.journal_dir)
        records = read_journal(self.journal_dir)
        marker_at = max(
            (i for i, r in enumerate(records) if r["op"] == "checkpoint"), default=None
        )
        if marker_at is None:
            raise CheckpointError(
                f"journal {self.journal_dir} holds no checkpoint marker; cannot recover"
            )
        name = records[marker_at]["path"]
        doc = read_checkpoint(self.checkpoint_dir / name, cut_log=True)
        owner_state = doc.get(self._owner)
        if not isinstance(owner_state, dict):
            raise CheckpointError(f"{name}: checkpoint.{self._owner}: expected an object")
        mediator = restore_mediator(doc)
        state, sessions = doc["state"], doc["sessions"]
        self._lines = doc["history_lines"]
        self._logged = {
            "tick": len(state["timeline"]),
            "event": len(state["accountant"]["log"]),
            "finished": len(state["finished"]),
        }
        self._delivered = {} if sessions is None else _next_seqs(sessions)
        mark = self._marks.get(name)
        dropped = 0 if mark is None else self._bus.truncate_to_mark(mark)
        self._bus.emit_meta(
            "restore",
            {"tick": mediator.tick_count, "checkpoint": name, "dropped_events": dropped},
        )
        # attach_trace_bus syncs the tick cursor from the restored timeline,
        # so re-executed events stamp exactly as they did before the crash.
        mediator.attach_trace_bus(self._bus)
        tail = records[marker_at + 1 :]
        reach = max(
            [mediator.tick_count] + [r["tick"] for r in tail if r["op"] == "tick"]
        )
        self._resume = (
            records[-1]["seq"] + 1,
            {"ticks": reach - mediator.tick_count, "records": len(tail)},
        )
        return Restored(mediator, owner_state, reach, len(tail), sessions)

    def reopen(self) -> None:
        """Resume journaling after re-execution, at the next fresh sequence
        number (a new segment)."""
        start_seq, replayed = self._resume
        self.journal = JournalWriter(
            self.journal_dir, start_seq=start_seq, **self._journal_args
        )
        self._bus.emit_meta("replayed", replayed)


def _next_seqs(sessions_state: dict) -> dict[int, int]:
    """Per client, the first delivery seq a checkpoint has not logged."""
    return {s["client"]: s["next_seq"] for s in sessions_state["sessions"]}
