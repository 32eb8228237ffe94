"""Retention: trace sealing/compaction, segment pruning, checkpoint pruning."""

from __future__ import annotations

import hashlib

import pytest

from repro.errors import ConfigurationError, TraceError
from repro.observability import StreamingTraceBus, TraceBus
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import canonical_line
from repro.persistence import JournalWriter, list_segments
from repro.service import MediatorService, RetentionConfig, RetentionManager, ServiceConfig


def test_config_validation():
    with pytest.raises(ConfigurationError):
        RetentionConfig(retain_trace_events=0)
    with pytest.raises(ConfigurationError):
        RetentionConfig(keep_checkpoints=0)


def _emit_ticks(bus, ticks, *, start=0):
    for tick in range(start, start + ticks):
        bus.begin_tick(tick, tick * 0.1)
        bus.emit("tick", {"time_s": tick * 0.1, "cap_w": 100.0, "wall_w": 50.0})


def test_streaming_bus_hash_is_compaction_invariant():
    """Sealing + evicting the prefix must not change the content hash."""
    plain = TraceBus()
    streaming = StreamingTraceBus(retain_events=8)
    _emit_ticks(plain, 50)
    _emit_ticks(streaming, 50)
    streaming.set_seal_mark(streaming.mark())
    streaming.compact()
    assert streaming.retained_events <= 8
    assert streaming.sealed_events > 0
    assert streaming.content_hash() == plain.content_hash()
    # More events after compaction still extend the same hash stream.
    _emit_ticks(plain, 10, start=50)
    _emit_ticks(streaming, 10, start=50)
    assert streaming.content_hash() == plain.content_hash()


def test_streaming_bus_never_seals_past_the_mark():
    bus = StreamingTraceBus(retain_events=4)
    _emit_ticks(bus, 20)
    bus.set_seal_mark(10)
    bus.compact()
    # Events at seq >= 10 are unsealable: they may still be truncated.
    assert bus.sealed_through <= 10
    assert bus.truncate_to_mark(10) == 10  # drops retained seqs 10..19
    with pytest.raises(TraceError):
        bus.truncate_to_mark(bus.sealed_through - 1)
    with pytest.raises(TraceError):
        bus.set_seal_mark(5)  # the seal mark is monotone


def test_retention_pass_bounds_everything(tmp_path):
    metrics = MetricsRegistry()
    config = RetentionConfig(
        retain_trace_events=8, records_per_segment=5, keep_checkpoints=2
    )
    manager = RetentionManager(config, metrics=metrics)

    bus = StreamingTraceBus(retain_events=8)
    _emit_ticks(bus, 40)
    journal_dir = tmp_path / "journal"
    writer = JournalWriter(journal_dir, records_per_segment=5)
    writer.append_meta(dt_s=0.1)
    for tick in range(30):
        writer.append_tick(tick)
    writer.close()
    checkpoint_dir = tmp_path / "checkpoints"
    checkpoint_dir.mkdir()
    for tick in (100, 200, 300, 400):
        (checkpoint_dir / f"ckpt-{tick:08d}.json").write_text("{}")

    manager.run(
        bus=bus,
        journal_dir=journal_dir,
        checkpoint_dir=checkpoint_dir,
        safe_seq=23,
        safe_mark=30,
    )
    # Only the sealable prefix (seq < safe_mark 30) may be evicted: 10 of
    # the 40 events must stay, even though the soft cap is 8.
    assert bus.retained_events == 10
    assert bus.sealed_through == 30
    segments = list_segments(journal_dir)
    # Segments wholly before seq 23 are gone; the one holding 23 survives.
    assert all(int(s.name.split("-")[1].split(".")[0]) + 5 > 23 for s in segments[:-1])
    assert metrics.counter("service.retention.segments_pruned").value == 4
    names = sorted(p.name for p in checkpoint_dir.glob("ckpt-*.json"))
    assert names == ["ckpt-00000300.json", "ckpt-00000400.json"]
    assert metrics.gauge("service.retention.journal_segments").value == len(segments)
    assert metrics.gauge("service.retention.trace_events").value == bus.retained_events


def test_trace_spill_sink_receives_evicted_events(tmp_path):
    sink = tmp_path / "spill.jsonl"
    bus = StreamingTraceBus(retain_events=4, sink_path=sink)
    plain = TraceBus()
    _emit_ticks(bus, 20)
    _emit_ticks(plain, 20)
    bus.set_seal_mark(bus.mark())
    bus.compact()
    bus.close_sink()
    lines = sink.read_text().splitlines()
    assert len(lines) >= 16  # everything evicted landed in the sink
    import json

    seqs = [json.loads(line)["seq"] for line in lines if json.loads(line)["seq"] is not None]
    assert seqs == sorted(seqs)
    # The sink holds the canonical line of every evicted event (meta ones
    # included), newline-terminated, in stream order; the window the rest.
    expected = [canonical_line(event) + "\n" for event in plain.events]
    assert sink.read_text() == "".join(expected[: bus.sealed_events])
    assert [canonical_line(event) + "\n" for event in bus.events] == expected[
        bus.sealed_events :
    ]
    assert bus.content_hash() == plain.content_hash()


def test_a_seeded_service_spills_the_same_stream_in_batches(service_cfg, tmp_path, monkeypatch):
    # The window evicts down to half its cap once it overflows, not one event
    # per emit. What is spilled and hashed is unchanged: the content hash and
    # the spill file followed by the retained window are the ones a
    # compaction on every emit wrote, and the spill file is a prefix of them.
    evicting = []
    compact = StreamingTraceBus.compact

    def spy(bus):
        evicted = compact(bus)
        if evicted:
            evicting.append(evicted)
        return evicted

    monkeypatch.setattr(StreamingTraceBus, "compact", spy)
    config = ServiceConfig(
        **service_cfg, retention=RetentionConfig(retain_trace_events=64, every_ticks=100)
    )
    service = MediatorService(config, tmp_path, trace_spill=True)
    service.run_for_ticks(600)
    service.close()
    spill = (tmp_path / "trace-spill.jsonl").read_bytes()
    window = "".join(canonical_line(event) + "\n" for event in service.trace_bus.events)
    stream = spill + window.encode("utf-8")
    assert service.content_hash() == (
        "d456aa5c9e37a2634ebffee36d28146221367613a64d5b794436bef6e5511843"
    )
    assert hashlib.sha256(stream).hexdigest() == (
        "68c653a14fbff96a27a1cf89d35584f6dcecee8b75fc1728bcd92342dda9088c"
    )
    assert service.trace_bus.retained_events <= 64
    # Batches, not one or two events per call: each evicting pass here
    # takes at least 16 events on average.
    sealed = service.trace_bus.sealed_events
    assert sum(evicting) == sealed
    assert len(evicting) <= sealed // 16
