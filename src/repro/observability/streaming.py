"""A trace bus with bounded memory and a replay-identical content hash.

:class:`~repro.observability.trace.TraceBus` keeps every event in memory -
correct for batch experiments, fatal for a service soak that runs for days.
:class:`StreamingTraceBus` bounds the retained window by **sealing** the
oldest sim events into an incremental sha256 and (optionally) spilling their
canonical lines to a JSONL sink file. Because the hash definition is a fold
over canonical sim-event lines in sequence order, folding a prefix eagerly
and the retained suffix lazily produces *exactly* :func:`trace_hash` of the
full stream - retention never changes the hash.

The one interaction that needs care is crash recovery:
:meth:`TraceBus.truncate_to_mark` rewinds the sim stream to a checkpoint's
mark, which is impossible for events already folded into the digest. The
bus therefore refuses to seal past its **seal mark**, which the service
advances only when a checkpoint covering those events becomes durable - the
same rule the journal's retention uses. Recovery always truncates to the
latest durable checkpoint's mark, so the sealed prefix is never at risk.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.errors import TraceError
from repro.observability.trace import TraceBus, canonical_line

__all__ = ["StreamingTraceBus"]


class StreamingTraceBus(TraceBus):
    """A :class:`TraceBus` that seals old events into an incremental hash.

    Args:
        retain_events: Soft cap on in-memory events. Once the window
            exceeds it, :meth:`compact` (called automatically on emit)
            evicts the sealable prefix down to half the cap, so a full
            window is copied once per ``retain_events // 2`` emits. The
            window can exceed the cap when the seal mark lags (events newer
            than the last durable checkpoint must stay truncatable).
        sink_path: Optional JSONL file receiving the canonical line of every
            evicted event, so the full stream remains reconstructible on
            disk even though memory is bounded.
    """

    def __init__(
        self, *, retain_events: int = 4096, sink_path: str | Path | None = None
    ) -> None:
        if retain_events < 1:
            raise TraceError(f"retain_events must be at least 1, got {retain_events}")
        self._retain_events = retain_events
        self._low_water = retain_events // 2
        self._sealed_digest = hashlib.sha256()
        self._sealed_through = 0  # sim seqs < this are folded into the digest
        self._seal_mark = 0  # sim seqs < this are *allowed* to be sealed
        self._sealed_count = 0
        if sink_path is None:
            self._sink = None
        else:
            path = Path(sink_path)
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                self._sink = open(path, "a", encoding="utf-8")
            except OSError as exc:
                raise TraceError(f"cannot open trace sink {path}: {exc}") from None
        super().__init__()  # emits the trace-header meta event

    @property
    def retained_events(self) -> int:
        """In-memory window size right now (the retention footprint gauge)."""
        return len(self._events)

    @property
    def sealed_events(self) -> int:
        """Events evicted into the digest/sink so far."""
        return self._sealed_count

    @property
    def sealed_through(self) -> int:
        """Sim events with ``seq < sealed_through`` are hashed and immutable."""
        return self._sealed_through

    def set_seal_mark(self, mark: int) -> None:
        """Allow sealing of sim events with ``seq < mark``.

        The caller asserts that no future recovery will truncate below
        ``mark`` - i.e. a checkpoint taken at that bus mark is durable. The
        mark is monotone; moving it backwards would un-promise that.
        """
        if mark < self._seal_mark:
            raise TraceError(
                f"seal mark must be monotone: {mark} < current {self._seal_mark}"
            )
        self._seal_mark = mark

    def compact(self) -> int:
        """Evict the oldest events down to half the retention cap once the
        window exceeds the cap; returns evicted.

        Meta events evict freely (they are outside the hash). Sim events
        evict only below the seal mark, in sequence order, each folded into
        the incremental digest - so :meth:`content_hash` stays equal to the
        full-stream :func:`~repro.observability.trace.trace_hash`, and the
        sink receives the same lines in the same order, only in batches.
        """
        if len(self._events) <= self._retain_events:
            return 0
        excess = len(self._events) - self._low_water
        evicted = 0
        index = 0
        for event in self._events:
            if evicted >= excess:
                break
            line = None
            if not event.is_meta:
                if event.seq >= self._seal_mark:
                    break  # still truncatable; must stay in memory
                # Prefix eviction in storage order keeps sealed seqs contiguous.
                assert event.seq == self._sealed_through
                line = canonical_line(event) + "\n"
                self._sealed_digest.update(line.encode("utf-8"))
                self._sealed_through = event.seq + 1
            if self._sink is not None:
                try:
                    self._sink.write(line or (canonical_line(event) + "\n"))
                except OSError as exc:
                    raise TraceError(f"cannot write trace sink: {exc}") from None
            evicted += 1
            index += 1
        if evicted:
            self._events = self._events[index:]
            self._sealed_count += evicted
        return evicted

    def emit(self, kind, payload=None):
        event = super().emit(kind, payload)
        if len(self._events) > self._retain_events:
            self.compact()
        return event

    def emit_meta(self, kind, payload=None):
        event = super().emit_meta(kind, payload)
        if len(self._events) > self._retain_events:
            self.compact()
        return event

    def truncate_to_mark(self, mark: int) -> int:
        if mark < self._sealed_through:
            raise TraceError(
                f"cannot truncate to mark {mark}: sim events through "
                f"{self._sealed_through} are sealed into the streaming hash"
            )
        return super().truncate_to_mark(mark)

    def content_hash(self) -> str:
        """sha256 of sealed prefix + retained suffix == full-stream hash."""
        digest = self._sealed_digest.copy()
        for event in self._events:
            if event.is_meta:
                continue
            digest.update(canonical_line(event).encode("utf-8"))
            digest.update(b"\n")
        return digest.hexdigest()

    def close_sink(self) -> None:
        """Flush and close the spill sink (idempotent; no-op without one)."""
        if self._sink is not None:
            try:
                self._sink.flush()
            except OSError:
                pass
            self._sink.close()
            self._sink = None
