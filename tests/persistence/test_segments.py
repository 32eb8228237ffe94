"""Journal segment rotation, stitching, torn tails and pruning.

The boundary cases get explicit coverage: a journal whose last record is
torn, whose tail past the last fsync point is lost, or whose last segment
was rotated in but never written.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import JournalError
from repro.persistence import (
    JournalWriter,
    list_segments,
    prune_segments,
    read_journal,
    repair_torn_tail,
    segment_filename,
    segment_start_seq,
    segments_size_bytes,
)


def _fill(directory, *, records=10, per_segment=4, fsync_every_ticks=25):
    """meta + (records-1) ticks, rotated every ``per_segment`` records."""
    writer = JournalWriter(
        directory,
        records_per_segment=per_segment,
        fsync_every_ticks=fsync_every_ticks,
    )
    writer.append_meta(dt_s=0.1)
    for tick in range(records - 1):
        writer.append_tick(tick)
    return writer


def test_segment_names_round_trip():
    assert segment_filename(0) == "journal-0000000000.jsonl"
    assert segment_start_seq(segment_filename(12345)) == 12345
    with pytest.raises(JournalError):
        segment_filename(-1)
    with pytest.raises(JournalError):
        segment_start_seq("notes.txt")


def test_rotation_preserves_the_record_stream(tmp_path):
    writer = _fill(tmp_path, records=10, per_segment=4)
    writer.close()
    segments = list_segments(tmp_path)
    assert [s.name for s in segments] == [
        segment_filename(0),
        segment_filename(4),
        segment_filename(8),
    ]
    records = read_journal(tmp_path)
    assert [r["seq"] for r in records] == list(range(10))
    assert records[0]["op"] == "meta"
    assert segments_size_bytes(tmp_path) == sum(s.stat().st_size for s in segments)


def test_interior_segments_are_durable_in_full(tmp_path):
    writer = _fill(tmp_path, records=9, per_segment=4, fsync_every_ticks=1000)
    # Crash-close: even with fsync batching never reached, rotation synced
    # the two interior segments whole; only the live one has an at-risk tail.
    writer.abort()
    interior = list_segments(tmp_path)[:-1]
    assert len(interior) == 2
    for path in interior:
        for line in path.read_text().splitlines():
            json.loads(line)  # every interior line is whole
    records = read_journal(tmp_path)
    assert [r["seq"] for r in records] == list(range(9))


def test_interior_damage_is_a_discontinuity(tmp_path):
    writer = _fill(tmp_path, records=10, per_segment=4)
    writer.close()
    first = list_segments(tmp_path)[0]
    lines = first.read_text().splitlines()
    first.write_text("\n".join(lines[:-1]) + "\n")  # lose a durable record
    with pytest.raises(JournalError, match="durable records are missing"):
        read_journal(tmp_path)


def test_renamed_segment_is_detected(tmp_path):
    writer = _fill(tmp_path, records=10, per_segment=4)
    writer.close()
    first = list_segments(tmp_path)[0]
    first.rename(first.parent / segment_filename(1))
    with pytest.raises(JournalError, match="does not match"):
        read_journal(tmp_path)


def test_cursor_exactly_on_torn_tail(tmp_path):
    """Repair trims the record the tear destroyed, and the journal then
    legitimately ends just before it."""
    writer = _fill(tmp_path, records=10, per_segment=100, fsync_every_ticks=1)
    writer.close()
    segment = list_segments(tmp_path)[-1]
    with open(segment, "ab") as handle:
        handle.write(b'{"seq": 10, "op": "tick", "ti')  # torn mid-record
    assert repair_torn_tail(tmp_path) is True
    assert [r["seq"] for r in read_journal(tmp_path)] == list(range(10))


def test_cursor_one_past_last_fsync_point(tmp_path):
    """After a crash that loses the whole un-fsynced tail, the journal ends
    at the last durable record and needs no repair."""
    writer = _fill(tmp_path, records=8, per_segment=100, fsync_every_ticks=3)
    durable = writer.durable_offset
    segment = writer.current_segment
    writer.abort()
    # Simulate the OS losing everything past the last fsync point.
    import os

    os.truncate(segment, durable)
    assert repair_torn_tail(tmp_path) is False  # the cut is record-aligned
    records = read_journal(tmp_path)
    assert records[-1]["seq"] < 7  # the tail really was lost
    assert [r["seq"] for r in records] == list(range(records[-1]["seq"] + 1))


def test_prune_keeps_the_cursor_segment_and_the_last(tmp_path):
    writer = _fill(tmp_path, records=12, per_segment=4)
    writer.close()
    # Cursor mid-segment: its segment (start 4) must survive.
    assert prune_segments(tmp_path, 5) == 1
    assert [s.name for s in list_segments(tmp_path)] == [
        segment_filename(4),
        segment_filename(8),
    ]
    # The live (last) segment is never pruned, whatever the cursor says.
    assert prune_segments(tmp_path, 10 ** 6) == 1
    assert [s.name for s in list_segments(tmp_path)] == [segment_filename(8)]


def test_writer_resumes_at_a_recovery_seq(tmp_path):
    writer = _fill(tmp_path, records=6, per_segment=100)
    writer.close()
    resumed = JournalWriter(tmp_path, records_per_segment=100, start_seq=6)
    resumed.append_tick(99)
    resumed.close()
    records = read_journal(tmp_path)
    assert [r["seq"] for r in records] == list(range(7))
    assert records[-1] == {"seq": 6, "op": "tick", "tick": 99}


def test_read_tolerates_empty_last_segment(tmp_path):
    writer = _fill(tmp_path, records=8, per_segment=4)
    writer.close()
    (tmp_path / segment_filename(8)).touch()  # rotated, died before appending
    assert [r["seq"] for r in read_journal(tmp_path)] == list(range(8))


def test_record_stream_matches_unsegmented_journal(tmp_path):
    """Segmentation changes file boundaries, not the stream: the same
    appends into one segment produce byte-identical records."""
    seg_dir, one_dir = tmp_path / "seg", tmp_path / "one"
    writer = JournalWriter(seg_dir, records_per_segment=3)
    single = JournalWriter(one_dir, records_per_segment=1000)
    for target in (writer, single):
        target.append_meta(dt_s=0.1)
        for tick in range(5):
            target.append_tick(tick)
        target.append_checkpoint(tick=5, path="ckpt-00000005.json")
        target.close()
    assert len(list_segments(seg_dir)) == 3 and len(list_segments(one_dir)) == 1
    assert read_journal(seg_dir) == read_journal(one_dir)
    combined = "".join(p.read_text() for p in list_segments(seg_dir))
    assert combined == list_segments(one_dir)[0].read_text()
