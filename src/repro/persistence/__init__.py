"""Crash-tolerant mediation: checkpoints, progress journal, supervision.

The mediator of :mod:`repro.core.mediator` is a long-running control loop;
this package makes one run survive the loop's *own* death. Four layers:

* :mod:`repro.persistence.checkpoint` - versioned, schema-stamped snapshots
  of every stateful component (utility matrices, sampling state, accountant
  ledgers, coordinator cursor, battery SoC, resilience counters, RNG
  streams) plus the :class:`~repro.persistence.checkpoint.RunRecipe` that
  rebuilds the surrounding objects, so a resumed run replays
  **bit-identically**; every growing history (timeline, accountant events,
  departures, session deliveries) lives in one append-only log beside the
  documents, so a checkpoint costs what changed since the last one;
* :mod:`repro.persistence.journal` - a segmented, append-only journal
  (JSONL) recording ticks as they complete and each landed checkpoint, with
  explicit fsync points and a torn-tail recovery rule;
* :mod:`repro.persistence.store` - :class:`RunStore`, the one core that
  owns a run's journal, checkpoints and trace marks and applies the one
  recovery rule: restore the newest marked checkpoint, then re-execute up
  to the ticks the durable journal reaches;
* :mod:`repro.persistence.supervisor` - the watchdog that detects a died or
  hung mediator, warm-restarts it through its store, and optionally holds
  the server in the PR 1 guard-banded safe posture while trust is
  re-established.

:class:`~repro.service.loop.MediatorService` drives the same store. See
DESIGN.md section 8 ("Crash model and recovery") for the invariants.
"""

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
    JOURNAL_SCHEMA,
    JOURNAL_VERSION,
    JournalWriter,
    list_segments,
    prune_segments,
    read_journal,
    repair_torn_tail,
    segment_filename,
    segment_start_seq,
    segments_size_bytes,
)
from repro.persistence.store import Restored, RunStore
from repro.persistence.supervisor import (
    AdmitApp,
    Advance,
    MediatorHung,
    MediatorKilled,
    RecoveryStats,
    SetCap,
    Supervisor,
)

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CHECKPOINT_VERSION",
    "HISTORY_LOG",
    "JOURNAL_SCHEMA",
    "JOURNAL_VERSION",
    "AdmitApp",
    "Advance",
    "JournalWriter",
    "MediatorHung",
    "MediatorKilled",
    "RecoveryStats",
    "Restored",
    "RunRecipe",
    "RunStore",
    "SetCap",
    "Supervisor",
    "checkpoint_filename",
    "list_segments",
    "prune_segments",
    "read_checkpoint",
    "read_journal",
    "repair_torn_tail",
    "restore_mediator",
    "segment_filename",
    "segment_start_seq",
    "segments_size_bytes",
]
