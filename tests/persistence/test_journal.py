"""Progress journal: durability points, torn-tail rule, validation."""

from __future__ import annotations

import json

import pytest

from repro.errors import JournalError
from repro.persistence import (
    JOURNAL_VERSION,
    JournalWriter,
    read_journal,
    repair_torn_tail,
    segment_filename,
)


def _write_basic(directory, *, fsync_every_ticks=25):
    writer = JournalWriter(directory, fsync_every_ticks=fsync_every_ticks)
    writer.append_meta(dt_s=0.1)
    for tick in range(1, 4):
        writer.append_tick(tick)
    writer.append_checkpoint(tick=3, path="ckpt-00000003.json")
    return writer


def test_round_trip(tmp_path):
    writer = _write_basic(tmp_path)
    writer.close()
    records = read_journal(tmp_path)
    assert [r["op"] for r in records] == ["meta", "tick", "tick", "tick", "checkpoint"]
    seqs = [r["seq"] for r in records]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    assert records[-1]["path"] == "ckpt-00000003.json"


def test_tick_fsync_is_batched(tmp_path):
    writer = JournalWriter(tmp_path, fsync_every_ticks=3)
    writer.append_meta(dt_s=0.1)
    after_meta = writer.durable_offset
    writer.append_tick(1)
    writer.append_tick(2)
    assert writer.durable_offset == after_meta  # not yet synced
    writer.append_tick(3)
    assert writer.durable_offset > after_meta  # batch boundary synced
    writer.close()


def test_checkpoint_markers_fsync_immediately(tmp_path):
    writer = JournalWriter(tmp_path, fsync_every_ticks=1000)
    writer.append_meta(dt_s=0.1)
    writer.append_tick(1)  # buffered, not synced
    before = writer.durable_offset
    writer.append_checkpoint(tick=1, path="ckpt-00000001.json")
    assert writer.durable_offset > before
    writer.close()


def test_abort_does_not_advance_durability(tmp_path):
    writer = JournalWriter(tmp_path, fsync_every_ticks=1000)
    writer.append_meta(dt_s=0.1)
    durable = writer.durable_offset
    writer.append_tick(1)  # buffered, not synced
    writer.abort()
    assert writer.durable_offset == durable
    # The at-risk tail did reach the file.
    assert writer.current_segment.stat().st_size > durable


def test_torn_final_line_is_dropped(tmp_path):
    _write_basic(tmp_path).close()
    with open(tmp_path / segment_filename(0), "a", encoding="utf-8") as handle:
        handle.write('{"seq": 99, "op": "ti')  # torn mid-write, no newline
    records = read_journal(tmp_path)
    assert [r["op"] for r in records][-1] == "checkpoint"


def test_interior_malformed_record_raises(tmp_path):
    path = tmp_path / segment_filename(0)
    lines = [
        json.dumps({"seq": 0, "op": "meta", "version": JOURNAL_VERSION, "dt_s": 0.1}),
        '{"seq": 1, "op": "ti',  # damaged, but NOT the final line
        json.dumps({"seq": 2, "op": "tick", "tick": 1}),
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(JournalError, match="interior"):
        read_journal(tmp_path)


def test_sequence_regression_raises(tmp_path):
    path = tmp_path / segment_filename(5)
    lines = [
        json.dumps({"seq": 5, "op": "tick", "tick": 1}),
        json.dumps({"seq": 5, "op": "tick", "tick": 2}),
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(JournalError, match="sequence"):
        read_journal(tmp_path)


def test_unknown_op_raises(tmp_path):
    path = tmp_path / segment_filename(0)
    path.write_text(json.dumps({"seq": 0, "op": "mystery"}) + "\n")
    with pytest.raises(JournalError, match="op"):
        read_journal(tmp_path)


def test_version_mismatch_raises(tmp_path):
    path = tmp_path / segment_filename(0)
    path.write_text(
        json.dumps({"seq": 0, "op": "meta", "version": 99, "dt_s": 0.1}) + "\n"
    )
    with pytest.raises(JournalError, match="version 99"):
        read_journal(tmp_path)


def test_repair_torn_tail(tmp_path):
    _write_basic(tmp_path).close()
    path = tmp_path / segment_filename(0)
    clean_size = path.stat().st_size
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"seq": 99, "op"')
    assert repair_torn_tail(tmp_path) is True
    assert path.stat().st_size == clean_size
    assert repair_torn_tail(tmp_path) is False  # idempotent on a clean file
    # And the repaired journal is appendable without corrupting the interior.
    writer = JournalWriter(tmp_path, start_seq=read_journal(tmp_path)[-1]["seq"] + 1)
    writer.append_tick(4)
    writer.close()
    assert read_journal(tmp_path)[-1]["tick"] == 4


def test_start_seq_continues_ordering(tmp_path):
    writer = JournalWriter(tmp_path)
    writer.append_meta(dt_s=0.1)
    writer.append_tick(1)
    writer.close()
    resumed = JournalWriter(tmp_path, start_seq=2)
    resumed.append_tick(2)
    resumed.close()
    assert [r["seq"] for r in read_journal(tmp_path)] == [0, 1, 2]


def test_bad_fsync_cadence_rejected(tmp_path):
    with pytest.raises(JournalError, match="fsync_every_ticks"):
        JournalWriter(tmp_path, fsync_every_ticks=0)


def test_closed_writer_refuses_appends(tmp_path):
    writer = JournalWriter(tmp_path)
    writer.close()
    with pytest.raises(JournalError, match="closed"):
        writer.append_tick(1)
