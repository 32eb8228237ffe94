"""Progress journal: segmented, append-only JSONL with a torn-tail rule.

The journal is the fine-grained complement to checkpoints: checkpoints are
heavyweight and periodic, the journal records every tick of progress between
them. One record per line, each a JSON object with a strictly increasing
``seq`` and an ``op``:

========== ===========================================================
op          meaning / durability
========== ===========================================================
meta        run header (schema stamp, version, tick length); fsynced
tick        the number of ticks completed so far; fsynced in batches of
            ``fsync_every_ticks`` (ticks are deterministic, so losing
            the un-synced tail only costs re-execution, never truth)
checkpoint  a checkpoint document landed; carries its tick and file
            name; fsynced
========== ===========================================================

Recovery restores the newest marked checkpoint and re-executes as many
ticks as the durable tick records reach
(:class:`~repro.persistence.store.RunStore`). Commands are not journaled:
re-execution is deterministic, so the supervisor's script and the service's
seeded arrivals issue them again, in the same ticks.

**Segments.** One file would grow without bound, so the record stream is
sharded across files named ``journal-<start_seq>.jsonl``, where
``start_seq`` is the sequence number of the file's first record. Sequence
numbers are global and gap-free, so the filename doubles as an index:
retention deletes whole prefix segments once a checkpoint makes their
records obsolete. Rotation closes (flush + fsync) the outgoing segment, so
**only the last segment may ever be torn**.

**Torn-tail rule** (see :class:`~repro.errors.JournalError`): a crash can
tear the final line mid-write. :func:`read_journal` silently drops a
malformed *final* record - that data was never durable - but refuses a
malformed record anywhere in the interior, and a short interior segment
(a sequence discontinuity against the next segment's filename), because
recovering past a damaged middle would diverge from the run the journal
records.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

from repro.errors import JournalError
from repro.schema import Validator

#: Schema stamp written into the journal's meta record.
JOURNAL_SCHEMA = "repro-journal"

#: Current journal format version; bump on incompatible record changes.
#: Version 2: a ``tick`` record holds the ticks completed, and a
#: ``checkpoint`` marker only the document's tick and name. Version 3 drops
#: the ``command`` record.
JOURNAL_VERSION = 3

_VALID = Validator(JournalError)

_KNOWN_OPS = ("meta", "tick", "checkpoint")

_SEGMENT_RE = re.compile(r"^journal-(\d{10})\.jsonl$")


def segment_filename(start_seq: int) -> str:
    """Canonical segment name; zero-padded so lexicographic order is seq order."""
    if start_seq < 0:
        raise JournalError(f"segment start_seq must be non-negative, got {start_seq}")
    return f"journal-{start_seq:010d}.jsonl"


def segment_start_seq(path: str | Path) -> int:
    """The first sequence number a segment file claims to hold."""
    name = Path(path).name
    match = _SEGMENT_RE.match(name)
    if match is None:
        raise JournalError(f"{name!r} is not a journal segment name")
    return int(match.group(1))


def list_segments(directory: str | Path) -> list[Path]:
    """Every segment in ``directory``, in sequence order."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(
        (p for p in directory.iterdir() if _SEGMENT_RE.match(p.name)),
        key=segment_start_seq,
    )


def segments_size_bytes(directory: str | Path) -> int:
    """Total on-disk footprint of the journal's segments."""
    return sum(p.stat().st_size for p in list_segments(directory))


class JournalWriter:
    """Appends records to a segmented journal with explicit durability points.

    Rotation happens *before* the append that would exceed
    ``records_per_segment``, and the outgoing segment is closed with a final
    fsync, so every interior segment is durable in full.

    Args:
        directory: Segment directory; created if missing.
        records_per_segment: Records per file before rotating.
        fsync_every_ticks: Tick records between fsyncs. Meta records and
            checkpoint markers always fsync immediately.
        start_seq: First sequence number to assign; a recovering run passes
            ``last durable seq + 1`` so the ordering survives the restart
            (the new segment's filename records it).

    Raises:
        JournalError: for a non-positive cadence or an unwritable directory.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        records_per_segment: int = 4096,
        fsync_every_ticks: int = 25,
        start_seq: int = 0,
    ) -> None:
        if fsync_every_ticks < 1:
            raise JournalError(
                f"fsync_every_ticks must be at least 1, got {fsync_every_ticks}"
            )
        if records_per_segment < 1:
            raise JournalError(
                f"records_per_segment must be at least 1, got {records_per_segment}"
            )
        self._directory = Path(directory)
        self._records_per_segment = records_per_segment
        self._fsync_every_ticks = fsync_every_ticks
        self._seq = start_seq
        self._unsynced_ticks = 0
        self._closed = False
        self._open_segment()

    def _open_segment(self) -> None:
        self._path = self._directory / segment_filename(self._seq)
        try:
            self._directory.mkdir(parents=True, exist_ok=True)
            self._file = open(self._path, "a", encoding="utf-8")
        except OSError as exc:
            raise JournalError(f"cannot open journal {self._path}: {exc}") from None
        self._durable_offset = self._file.tell()
        self._in_segment = 0

    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def next_seq(self) -> int:
        """The sequence number the next record will carry."""
        return self._seq

    @property
    def current_segment(self) -> Path:
        """The file the next record will land in (the only tearable one)."""
        return self._path

    @property
    def durable_offset(self) -> int:
        """Offset within the *current* segment up to which records have been
        fsynced (interior segments are durable in full).

        Everything before this offset survives any crash; everything after
        it is the at-risk tail a crash may tear.
        """
        return self._durable_offset

    # ------------------------------------------------------------- appends

    def append_meta(self, *, dt_s: float) -> None:
        """Write the run header (always the first record)."""
        self._append(
            {
                "op": "meta",
                "schema": JOURNAL_SCHEMA,
                "version": JOURNAL_VERSION,
                "dt_s": dt_s,
            },
            durable=True,
        )

    def append_tick(self, ticks: int) -> None:
        """Record that ``ticks`` ticks have completed (batched durability)."""
        self._unsynced_ticks += 1
        self._append(
            {"op": "tick", "tick": ticks},
            durable=self._unsynced_ticks >= self._fsync_every_ticks,
        )

    def append_checkpoint(self, *, tick: int, path: str) -> None:
        """Record a landed checkpoint: its tick and its file name."""
        self._append({"op": "checkpoint", "tick": tick, "path": path}, durable=True)

    def _append(self, record: dict, *, durable: bool) -> None:
        if self._closed:
            raise JournalError(f"journal {self._directory} is closed")
        record = {"seq": self._seq, **record}
        try:
            if self._in_segment >= self._records_per_segment:
                self._sync()  # interior segments are never torn
                self._file.close()
                self._open_segment()
            self._file.write(json.dumps(record) + "\n")
            if durable:
                self._sync()
        except OSError as exc:
            raise JournalError(f"cannot append to journal {self._path}: {exc}") from None
        self._seq += 1
        self._in_segment += 1

    def _sync(self) -> None:
        self._file.flush()
        os.fsync(self._file.fileno())
        self._durable_offset = self._file.tell()
        self._unsynced_ticks = 0

    def abort(self) -> None:
        """Close as a crash would: nothing new becomes durable. Idempotent.

        Buffered records still reach the file (so a simulated tear can
        choose how much of the tail to destroy), but ``durable_offset``
        stays where the last fsync left it.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._file.flush()
        except OSError:
            pass
        self._file.close()

    def close(self) -> None:
        """Flush, fsync and close. Idempotent."""
        if self._closed:
            return
        self._closed = True
        try:
            self._sync()
        except OSError:
            pass
        self._file.close()


def repair_torn_tail(directory: str | Path) -> bool:
    """Trim a torn final record off the journal's last segment, in place.

    Recovery must do this before re-opening the journal for append:
    otherwise a record appended later could concatenate onto the torn
    fragment. Interior segments were fsynced whole at rotation, so only the
    last may legitimately be torn; damage anywhere else surfaces in
    :func:`read_journal`. Returns whether anything was trimmed.

    Raises:
        JournalError: if the segment cannot be read or truncated.
    """
    segments = list_segments(directory)
    if not segments:
        return False
    path = segments[-1]
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise JournalError(f"cannot read journal {path}: {exc}") from None
    if not data:
        return False
    torn = not data.endswith(b"\n")
    if not torn:
        last_line = data.rstrip(b"\n").rsplit(b"\n", 1)[-1]
        try:
            json.loads(last_line)
        except ValueError:
            torn = True
    if not torn:
        return False
    body = data.rstrip(b"\n") if data.endswith(b"\n") else data
    cut = body.rfind(b"\n")
    keep = cut + 1 if cut >= 0 else 0
    try:
        os.truncate(path, keep)
    except OSError as exc:
        raise JournalError(f"cannot repair journal {path}: {exc}") from None
    return True


def read_journal(directory: str | Path) -> list[dict]:
    """Read every durable record across all segments, validating stitching.

    Checks, per segment: the torn-tail rule, each record's shape, that the
    first record's seq matches the filename's ``start_seq`` (a renamed or
    cross-wired file fails loudly), and for interior segments that the last
    record's seq reaches exactly to the next segment's ``start_seq`` (a
    short interior segment means durable records were lost, which the
    torn-tail rule does not excuse).

    Raises:
        JournalError: on an empty directory, any single-segment damage, or
            a cross-segment discontinuity.
    """
    segments = list_segments(directory)
    if not segments:
        raise JournalError(f"no journal segments in {directory}")
    records: list[dict] = []
    for index, path in enumerate(segments):
        start_seq = segment_start_seq(path)
        segment_records = _read_segment(path)
        last = index == len(segments) - 1
        if not segment_records:
            if last:
                continue  # freshly rotated, crashed before the first append
            raise JournalError(f"{path.name}: interior segment holds no records")
        first_seq = segment_records[0]["seq"]
        if first_seq != start_seq:
            raise JournalError(
                f"{path.name}: first record seq {first_seq} does not match "
                f"the filename's start_seq {start_seq}"
            )
        if not last:
            next_start = segment_start_seq(segments[index + 1])
            end_seq = segment_records[-1]["seq"]
            if end_seq + 1 != next_start:
                raise JournalError(
                    f"{path.name}: segment ends at seq {end_seq} but the next "
                    f"segment starts at {next_start}; durable records are missing"
                )
        records.extend(segment_records)
    return records


def _read_segment(path: Path) -> list[dict]:
    """One segment's validated records; a malformed final line is dropped."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise JournalError(f"cannot read journal {path}: {exc}") from None
    lines = text.split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    records: list[dict] = []
    last_seq: int | None = None
    for lineno, line in enumerate(lines, start=1):
        try:
            raw = json.loads(line)
        except json.JSONDecodeError:
            if lineno == len(lines):
                break  # torn tail: the crash interrupted this write
            raise JournalError(
                f"{path}:{lineno}: malformed record in the journal interior "
                "(only the final record may be torn)"
            ) from None
        where = f"journal[{lineno}]"
        obj = _VALID.as_dict(raw, where)
        seq = _VALID.as_int(_VALID.require(obj, "seq", where), f"{where}.seq")
        op = _VALID.choice(_VALID.require(obj, "op", where), f"{where}.op", _KNOWN_OPS)
        if last_seq is not None and seq <= last_seq:
            raise JournalError(
                f"{path}:{lineno}: sequence number {seq} does not increase "
                f"past {last_seq}"
            )
        last_seq = seq
        if op == "meta":
            version = _VALID.as_int(
                _VALID.require(obj, "version", where), f"{where}.version"
            )
            if version != JOURNAL_VERSION:
                raise JournalError(
                    f"{path}:{lineno}: journal version {version} is not supported "
                    f"(this build reads version {JOURNAL_VERSION})"
                )
        else:  # tick or checkpoint
            _VALID.as_int(_VALID.require(obj, "tick", where), f"{where}.tick")
            if op == "checkpoint":
                _VALID.as_str(_VALID.require(obj, "path", where), f"{where}.path")
        records.append(obj)
    return records


def prune_segments(directory: str | Path, keep_from_seq: int) -> int:
    """Delete segments whose records all precede ``keep_from_seq``.

    Called by retention once a durable checkpoint covers everything up to
    ``keep_from_seq``: recovery never reads earlier records. A segment
    survives if any of its records could be >= ``keep_from_seq`` (i.e. the
    *next* segment's start_seq exceeds the cursor), and the last segment
    always survives (it is the append target). Returns segments deleted.
    """
    if keep_from_seq < 0:
        raise JournalError(f"retention cursor must be non-negative, got {keep_from_seq}")
    segments = list_segments(directory)
    deleted = 0
    for index in range(len(segments) - 1):
        next_start = segment_start_seq(segments[index + 1])
        if next_start <= keep_from_seq:
            try:
                segments[index].unlink()
            except OSError as exc:
                raise JournalError(
                    f"cannot prune segment {segments[index].name}: {exc}"
                ) from None
            deleted += 1
        else:
            break  # segments are ordered; nothing later is prunable either
    return deleted
