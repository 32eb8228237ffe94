"""Retention: bounded memory and disk for an indefinitely running service.

Three things grow without bound in a naive service: the in-memory trace,
the on-disk journal, and the checkpoint documents. The
:class:`RetentionManager` compacts all three on a fixed tick cadence, and
the bound it enforces is always anchored to the **latest durable
checkpoint** - nothing a future recovery could still need is ever evicted:

* the :class:`~repro.observability.streaming.StreamingTraceBus` seal mark
  advances to the checkpoint's bus mark, then the window compacts down to
  half its cap (sealed events fold into the incremental hash, so the run's
  content hash is unchanged);
* journal segments wholly before the checkpoint's marker record are pruned
  (:func:`~repro.persistence.journal.prune_segments`) - recovery starts at
  the newest marker, so earlier records are unreachable;
* checkpoints older than the newest ``keep_checkpoints`` are deleted
  (recovery only ever restores the latest durable one).

Footprints are published as ``service.retention.*`` gauges so a soak can
assert boundedness instead of trusting it.

One store is deliberately left to grow with the run: the checkpoints'
``history.jsonl`` log gains one timeline line a tick, plus the accountant's
events, the departures and the session deliveries, and is never pruned. The
timeline in it (also kept in memory) is the record
:func:`~repro.core.simulation.verify_cap_invariant` audits, and recovery
reads every line the newest document covers. Only the documents stay
bounded: each holds cursors into the log, not the histories.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigurationError, ServiceError
from repro.observability.metrics import MetricsRegistry
from repro.observability.streaming import StreamingTraceBus
from repro.persistence.journal import list_segments, prune_segments, segments_size_bytes

__all__ = ["RetentionConfig", "RetentionManager"]


@dataclass(frozen=True)
class RetentionConfig:
    """Bounds for the service's retained state.

    Attributes:
        retain_trace_events: Soft cap on in-memory trace events.
        session_window: Retained deliveries per client session (replay
            depth; a client disconnected longer than this many deliveries
            hits a replay gap, loudly).
        records_per_segment: Journal rotation threshold.
        keep_checkpoints: Checkpoints retained on disk.
        every_ticks: Compaction cadence.
    """

    retain_trace_events: int = 4096
    session_window: int = 4096
    records_per_segment: int = 2048
    keep_checkpoints: int = 2
    every_ticks: int = 500

    def __post_init__(self) -> None:
        for name in (
            "retain_trace_events",
            "session_window",
            "records_per_segment",
            "keep_checkpoints",
            "every_ticks",
        ):
            value = getattr(self, name)
            if value < 1:
                raise ConfigurationError(f"retention {name} must be >= 1, got {value}")


class RetentionManager:
    """Applies a :class:`RetentionConfig` to the service's stores."""

    def __init__(self, config: RetentionConfig, *, metrics: MetricsRegistry) -> None:
        self.config = config
        self._metrics = metrics

    def run(
        self,
        *,
        bus: StreamingTraceBus | None,
        journal_dir: Path,
        checkpoint_dir: Path,
        safe_seq: int,
        safe_mark: int | None,
    ) -> None:
        """One compaction pass, anchored at the latest durable checkpoint.

        Args:
            bus: The streaming trace bus (``None`` when tracing is off).
            journal_dir: Segment directory.
            checkpoint_dir: Checkpoint directory.
            safe_seq: Journal seq of the latest durable checkpoint marker;
                segments wholly before it are prunable.
            safe_mark: That checkpoint's trace-bus mark; sim events below
                it are sealable. ``None`` leaves the seal mark alone.
        """
        if bus is not None and isinstance(bus, StreamingTraceBus):
            if safe_mark is not None:
                bus.set_seal_mark(safe_mark)
            bus.compact()
            self._metrics.gauge("service.retention.trace_events").set(
                float(bus.retained_events)
            )
            self._metrics.gauge("service.retention.trace_sealed").set(
                float(bus.sealed_events)
            )
        pruned = prune_segments(journal_dir, safe_seq)
        if pruned:
            self._metrics.counter("service.retention.segments_pruned").inc(pruned)
        self._metrics.gauge("service.retention.journal_segments").set(
            float(len(list_segments(journal_dir)))
        )
        self._metrics.gauge("service.retention.journal_bytes").set(
            float(segments_size_bytes(journal_dir))
        )
        self.prune_checkpoints(checkpoint_dir)

    def prune_checkpoints(self, checkpoint_dir: Path) -> int:
        """Delete all but the newest ``keep_checkpoints`` checkpoints. Cheap,
        so the loop runs it at every checkpoint write (not just full
        compaction passes) - recovery only ever restores the newest durable
        one."""
        deleted = self._prune_checkpoints(checkpoint_dir)
        if deleted:
            self._metrics.counter("service.retention.checkpoints_pruned").inc(deleted)
        return deleted

    def _prune_checkpoints(self, checkpoint_dir: Path) -> int:
        checkpoints = sorted(Path(checkpoint_dir).glob("ckpt-*.json"))
        excess = checkpoints[: max(0, len(checkpoints) - self.config.keep_checkpoints)]
        for path in excess:
            try:
                path.unlink()
            except OSError as exc:
                raise ServiceError(f"cannot prune checkpoint {path.name}: {exc}") from None
        remaining = len(checkpoints) - len(excess)
        self._metrics.gauge("service.retention.checkpoints").set(float(remaining))
        return len(excess)
