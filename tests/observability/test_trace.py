"""Unit tests for the trace bus, canonical encoding, and verification."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.observability.trace import (
    NULL_TRACE_BUS,
    TRACE_SCHEMA_VERSION,
    TraceBus,
    TraceEvent,
    canonical_line,
    read_trace,
    summarize_trace,
    trace_hash,
    verify_trace,
    write_trace,
)


def _tick_payload(time_s: float, **extra) -> dict:
    payload = {"cap_w": 100.0, "wall_w": 50.0, "mode": "space", "soc": 0.5}
    payload.update(extra)
    payload.setdefault("time_s", time_s)
    return payload


def _bus_with_ticks(n: int) -> TraceBus:
    bus = TraceBus()
    for t in range(n):
        bus.begin_tick(t, t * 0.1)
        bus.emit("tick", _tick_payload(t * 0.1))
    return bus


class TestTraceBus:
    def test_header_emitted_on_construction(self):
        bus = TraceBus()
        assert bus.events[0].kind == "trace-header"
        assert bus.events[0].payload == {"schema": TRACE_SCHEMA_VERSION}
        assert bus.events[0].is_meta

    def test_sim_events_get_gapfree_seqs(self):
        bus = _bus_with_ticks(3)
        assert [e.seq for e in bus.events if not e.is_meta] == [0, 1, 2]

    def test_meta_events_do_not_consume_seqs(self):
        bus = TraceBus()
        bus.emit("tick", _tick_payload(0.0))
        bus.emit_meta("checkpoint", {"tick": 0})
        bus.emit("tick", _tick_payload(0.1))
        assert [e.seq for e in bus.events if not e.is_meta] == [0, 1]

    def test_unknown_kind_rejected(self):
        bus = TraceBus()
        with pytest.raises(TraceError, match="unknown sim event kind"):
            bus.emit("not-a-kind", {})
        with pytest.raises(TraceError, match="unknown meta event kind"):
            bus.emit_meta("tick", {})

    def test_numpy_scalars_normalized(self):
        bus = TraceBus()
        event = bus.emit("battery", {"charge_w": np.float64(3.5), "n": np.int64(2)})
        assert type(event.payload["charge_w"]) is float
        assert type(event.payload["n"]) is int

    def test_non_finite_floats_rejected(self):
        bus = TraceBus()
        with pytest.raises(TraceError, match="non-finite"):
            bus.emit("battery", {"charge_w": float("nan")})

    def test_null_bus_is_inert(self):
        before = len(NULL_TRACE_BUS.events)
        NULL_TRACE_BUS.emit("tick", {"anything": float("inf")})  # not even validated
        NULL_TRACE_BUS.emit_meta("crash", {})
        NULL_TRACE_BUS.begin_tick(5, 0.5)
        assert len(NULL_TRACE_BUS.events) == before == 0
        assert not NULL_TRACE_BUS.active
        assert TraceBus().active


class TestMarkTruncate:
    def test_truncate_to_mark_drops_suffix_and_rewinds_seq(self):
        bus = _bus_with_ticks(2)
        mark = bus.mark()
        bus.emit("tick", _tick_payload(0.2))
        bus.emit("battery", {"soc": 0.4})
        assert bus.truncate_to_mark(mark) == 2
        assert bus.mark() == mark
        # Re-emission after truncation continues the sequence seamlessly.
        bus.emit("tick", _tick_payload(0.2))
        assert [e.seq for e in bus.events if not e.is_meta] == [0, 1, 2]

    def test_truncate_keeps_meta_events(self):
        bus = _bus_with_ticks(1)
        mark = bus.mark()
        bus.emit("tick", _tick_payload(0.1))
        bus.emit_meta("crash", {"reason": "kill"})
        bus.truncate_to_mark(mark)
        kinds = [e.kind for e in bus.events]
        assert kinds == ["trace-header", "tick", "crash"]

    def test_truncate_is_idempotent(self):
        bus = _bus_with_ticks(3)
        mark = bus.mark()
        assert bus.truncate_to_mark(mark) == 0
        assert bus.truncate_to_mark(mark) == 0

    def test_negative_mark_rejected(self):
        with pytest.raises(TraceError, match="non-negative"):
            TraceBus().truncate_to_mark(-1)


class TestCanonicalEncoding:
    def test_round_trip_through_file(self, tmp_path):
        bus = _bus_with_ticks(4)
        bus.emit_meta("checkpoint", {"tick": 3})
        path = tmp_path / "run.jsonl"
        digest = write_trace(path, bus)
        events = read_trace(path)
        assert events == bus.events
        assert trace_hash(events) == digest == bus.content_hash()

    def test_two_identical_buses_hash_equal(self):
        assert _bus_with_ticks(5).content_hash() == _bus_with_ticks(5).content_hash()

    def test_meta_events_excluded_from_hash(self):
        plain = _bus_with_ticks(5)
        noisy = _bus_with_ticks(5)
        noisy.emit_meta("crash", {"reason": "kill"})
        noisy.emit_meta("restore", {"tick": 3})
        assert plain.content_hash() == noisy.content_hash()

    def test_payload_changes_flip_hash(self):
        a = _bus_with_ticks(5)
        b = _bus_with_ticks(4)
        b.begin_tick(4, 0.4)
        b.emit("tick", _tick_payload(0.4, wall_w=50.000001))
        assert a.content_hash() != b.content_hash()

    def test_canonical_line_is_sorted_and_compact(self):
        line = canonical_line(
            TraceEvent(seq=0, tick=0, time_s=0.0, kind="tick", payload={"b": 1, "a": 2})
        )
        assert line.index('"a"') < line.index('"b"')
        assert ": " not in line and ", " not in line

    def test_read_trace_rejects_damage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(TraceError, match="line 1"):
            read_trace(path)
        with pytest.raises(TraceError, match="cannot read trace"):
            read_trace(tmp_path / "missing.jsonl")


class TestVerifyTrace:
    def test_clean_trace_passes(self):
        bus = _bus_with_ticks(10)
        checks = verify_trace(bus.events)
        assert checks["ticks"] == 10
        assert checks["sim_events"] == 10
        assert checks["breach_ticks"] == 0

    def test_empty_and_headerless_rejected(self):
        with pytest.raises(TraceError, match="empty"):
            verify_trace([])
        bus = _bus_with_ticks(1)
        with pytest.raises(TraceError, match="trace-header"):
            verify_trace(bus.events[1:])

    def test_sequence_gap_detected(self):
        bus = _bus_with_ticks(3)
        events = [e for e in bus.events if e.seq != 1]
        with pytest.raises(TraceError, match="sequence gap"):
            verify_trace(events)

    def test_tick_jump_detected(self):
        bus = TraceBus()
        bus.begin_tick(0, 0.0)
        bus.emit("tick", _tick_payload(0.0))
        bus.begin_tick(2, 0.2)
        bus.emit("tick", _tick_payload(0.2))
        with pytest.raises(TraceError, match="jumped"):
            verify_trace(bus.events)

    def test_unflagged_cap_breach_detected(self):
        bus = TraceBus()
        bus.begin_tick(0, 0.0)
        bus.emit("tick", _tick_payload(0.0, wall_w=120.0, cap_w=100.0))
        with pytest.raises(TraceError, match="exceeds cap"):
            verify_trace(bus.events)

    def test_flagged_breach_allowed_and_counted(self):
        bus = TraceBus()
        bus.begin_tick(0, 0.0)
        bus.emit("tick", _tick_payload(0.0, wall_w=120.0, cap_w=100.0, breach=True))
        assert verify_trace(bus.events)["breach_ticks"] == 1

    def test_soc_out_of_range_detected(self):
        bus = TraceBus()
        bus.begin_tick(0, 0.0)
        bus.emit("battery", {"soc": 1.5})
        with pytest.raises(TraceError, match="state of charge"):
            verify_trace(bus.events)


class TestAdversaryKinds:
    def test_adv_events_emit_and_verify(self):
        bus = _bus_with_ticks(2)
        bus.emit("adv-attack-start", {"app": "stream", "attack": "probe"})
        bus.emit("adv-quarantine", {"app": "stream", "score": 4.2})
        bus.emit("adv-attack-stop", {"app": "stream", "attack": "probe"})
        checks = verify_trace(bus.events)
        assert checks["sim_events"] == 5
        assert checks["unknown_kinds"] == 0
        summary = summarize_trace(bus.events)
        assert summary["kinds"]["adv-quarantine"] == 1
        assert summary["other"] == 0

    def test_unknown_kind_tolerated_when_lenient(self):
        """A newer writer's trace must remain readable: lenient verification
        counts foreign kinds instead of raising, and the summary buckets
        them under ``other``."""
        bus = _bus_with_ticks(3)
        events = list(bus.events)
        alien = TraceEvent(
            seq=events[-1].seq + 1, tick=3, time_s=0.3,
            kind="adv-exfiltrate", payload={"app": "x"},
        )
        events.append(alien)
        with pytest.raises(TraceError, match="unknown event kind"):
            verify_trace(events)
        checks = verify_trace(events, strict_kinds=False)
        assert checks["unknown_kinds"] == 1
        summary = summarize_trace(events)
        assert summary["other"] == 1
        assert summary["kinds"]["adv-exfiltrate"] == 1  # still enumerated


class TestSummarize:
    def test_summary_counts_and_modes(self):
        bus = _bus_with_ticks(6)
        bus.emit_meta("restore", {"tick": 3})
        summary = summarize_trace(bus.events)
        assert summary["ticks"] == 6
        assert summary["modes"] == {"space": 6}
        assert summary["restarts"] == 1
        assert summary["kinds"]["tick"] == 6
        assert summary["hash"] == bus.content_hash()
