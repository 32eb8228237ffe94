"""Structured per-run trace bus with a deterministic content hash.

A :class:`TraceBus` collects typed events as the simulation runs. Events come
in two flavours:

* **sim events** carry a monotone sequence number and are pure functions of
  simulation state — same seed, same events, byte for byte. The run's
  content hash (:func:`trace_hash`) covers exactly these.
* **meta events** (``seq`` is null) record facts about the *execution* of
  the run — checkpoints written, crashes observed, restores performed. They
  are kept in the file for forensics but excluded from the hash, so a
  crash-restart run stitches to the same hash as an uninterrupted one.

The mediator moves the bus's tick cursor at the top of every tick
(:meth:`TraceBus.begin_tick`); emitters then only name the event kind and
payload. The supervisor records :meth:`TraceBus.mark` alongside every
checkpoint; on recovery it calls :meth:`TraceBus.truncate_to_mark` with the
restored checkpoint's mark to drop every sim event emitted after that
snapshot - journal replay then deterministically re-emits identical events,
which is what makes the stitched stream replay-consistent. (Truncation is by
sequence number, not tick: commands journaled after a checkpoint are
replayed too, and their events carry the pre-crash tick cursor.)

Serialisation is canonical JSON (sorted keys, compact separators) one event
per line, so two identical runs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Iterable

from repro.errors import TraceError
from repro.schema import Validator

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "CONTROL_PLANE_KINDS",
    "ADVERSARY_KINDS",
    "HIERARCHY_KINDS",
    "TraceEvent",
    "TraceBus",
    "NullTraceBus",
    "NULL_TRACE_BUS",
    "canonical_line",
    "trace_hash",
    "write_trace",
    "read_trace",
    "verify_trace",
    "summarize_trace",
]

TRACE_SCHEMA_VERSION = 1

_VALIDATE = Validator(error=TraceError)

#: Event kinds emitted by the instrumented components. ``verify_trace``
#: rejects kinds outside this set so schema drift fails loudly.
SIM_KINDS = frozenset(
    {
        "tick",  # one per mediator tick: wall power, cap, mode, soc
        "battery",  # nonzero ESD charge/discharge flow this tick
        "allocation",  # an adopted allocation plan (per-app budgets, knobs)
        "mode-switch",  # coordination mode changed between plans
        "knob-actuation",  # a verified per-app knob write
        "suspend",  # an app transitioned running -> suspended
        "resume",  # an app transitioned suspended -> running
        "emergency-throttle",  # watchdog floor-throttle on a cap breach
        "cap-change",  # E1: the provisioner moved the server cap
        "arrival",  # E2: an application was admitted
        "departure",  # E3: an application finished or was removed
        "phase-change",  # E4: the accountant flagged a phase change
        "fault",  # F: a fault-injection episode began
        "recovery",  # R: a fault episode ended
        "cluster-bin",  # cluster search evaluated a (cap, count) bin
        "cluster-level",  # cluster search finished one shave level
        "cluster-controlplane",  # one control-plane replay summary per level
        "cp-command",  # controller sent a SetCap grant (fresh or retry)
        "cp-ack",  # controller received a node's acknowledgement
        "cp-epoch-reject",  # a node rejected a stale-epoch command
        "cp-lease-expired",  # a node's lease lapsed; it fell to its safe cap
        "cp-suspect",  # heartbeat loss made the controller suspect a node
        "cp-reintegrate",  # a suspect node's heartbeat returned
        "cp-reconcile",  # anti-entropy reissued state after a heal
        "cp-restart",  # a controller came back from a checkpoint (safe hold)
        "hier-fallback",  # a subtree lost its upstream lease (autonomous mode)
        "hier-heal",  # a fallen-back subtree re-acquired an upstream lease
        "hier-outage",  # a pdu/rack failure-domain outage window opened
        "hier-recover",  # a failure-domain outage window closed
        "hier-restart",  # an interior controller warm-restarted from checkpoint
        "hier-level",  # one budget-tree run summary per level
        "client-connect",  # a service client session opened (or churned in)
        "client-disconnect",  # a client session dropped (churned out)
        "client-replay",  # a reconnecting client replayed missed deliveries
        "ingest-shed",  # backpressure shed the oldest buffered arrival
        "ingest-reject",  # backpressure NACKed a new arrival at the door
        "overload-enter",  # ingest occupancy crossed the overload watermark
        "overload-exit",  # ingest occupancy fell back below the watermark
        "adv-attack-start",  # an adversary spec's attack window opened
        "adv-attack-stop",  # an attack window closed (or the attacker left)
        "adv-suspect",  # the TrustScorer moved an app to SUSPECT
        "adv-quarantine",  # an app was quarantined (suspended + excluded)
        "adv-probation",  # a quarantine expired into PROBATION
        "adv-trusted",  # an app regained full trust
    }
)

#: Control-plane event kinds (the ``cp-`` prefix), for display grouping.
CONTROL_PLANE_KINDS = frozenset(k for k in SIM_KINDS if k.startswith("cp-"))

#: Adversary/defense event kinds (the ``adv-`` prefix), for display grouping.
ADVERSARY_KINDS = frozenset(k for k in SIM_KINDS if k.startswith("adv-"))

#: Budget-tree event kinds (the ``hier-`` prefix), for display grouping.
HIERARCHY_KINDS = frozenset(k for k in SIM_KINDS if k.startswith("hier-"))

META_KINDS = frozenset({"trace-header", "checkpoint", "crash", "restore", "replayed"})


@dataclass(frozen=True)
class TraceEvent:
    """One trace record.

    Attributes:
        seq: Monotone index among sim events; ``None`` marks a meta event.
        tick: The mediator tick the event belongs to (cursor at emit time).
        time_s: Simulation time of the owning tick, seconds.
        kind: Event type, one of ``SIM_KINDS`` or ``META_KINDS``.
        payload: JSON-native details; keys depend on ``kind``.
    """

    seq: int | None
    tick: int
    time_s: float
    kind: str
    payload: dict[str, Any]

    @property
    def is_meta(self) -> bool:
        return self.seq is None

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "tick": self.tick,
            "time_s": self.time_s,
            "kind": self.kind,
            "payload": self.payload,
        }

    @classmethod
    def from_dict(cls, data: Any, path: str = "event") -> "TraceEvent":
        doc = _VALIDATE.as_dict(data, path)
        raw_seq = doc.get("seq", _MISSING)
        if raw_seq is _MISSING:
            _VALIDATE.fail(f"{path}.seq", "missing field")
        seq = None if raw_seq is None else _VALIDATE.as_int(raw_seq, f"{path}.seq")
        tick = _VALIDATE.as_int(doc.get("tick"), f"{path}.tick")
        time_s = _VALIDATE.as_number(doc.get("time_s"), f"{path}.time_s")
        kind = _VALIDATE.as_str(doc.get("kind"), f"{path}.kind")
        payload = _VALIDATE.as_dict(doc.get("payload"), f"{path}.payload")
        return cls(seq=seq, tick=tick, time_s=float(time_s), kind=kind, payload=payload)


_MISSING = object()


def _jsonable(value: Any, path: str) -> Any:
    """Coerce a payload value to JSON-native types, rejecting surprises.

    Numpy scalars are converted through their Python equivalents so the
    canonical encoding (and therefore the hash) never depends on numpy's
    repr. Non-finite floats are rejected: they would round-trip through
    JSON as ``NaN``/``Infinity`` extensions, which are not portable.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise TraceError(f"{path}: non-finite float {value!r} in trace payload")
        return float(value)  # demote float subclasses (numpy) to the builtin
    if hasattr(value, "item") and not isinstance(value, (list, dict)):  # numpy scalar
        return _jsonable(value.item(), path)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if isinstance(value, dict):
        out = {}
        for key, val in value.items():
            if not isinstance(key, str):
                raise TraceError(f"{path}: non-string payload key {key!r}")
            out[key] = _jsonable(val, f"{path}.{key}")
        return out
    raise TraceError(f"{path}: value of type {type(value).__name__} is not JSON-native")


class TraceBus:
    """In-memory collector of :class:`TraceEvent` records for one run."""

    #: Distinguishes a live bus from the shared no-op singleton.
    active = True

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []
        self._next_seq = 0
        self._tick = 0
        self._time_s = 0.0
        self.emit_meta("trace-header", {"schema": TRACE_SCHEMA_VERSION})

    @property
    def events(self) -> list[TraceEvent]:
        return list(self._events)

    def begin_tick(self, tick: int, time_s: float) -> None:
        """Move the tick cursor; emitters inherit it until the next call."""
        self._tick = int(tick)
        self._time_s = float(time_s)

    def emit(self, kind: str, payload: dict[str, Any] | None = None) -> TraceEvent:
        """Record a sim event at the current tick cursor."""
        if kind not in SIM_KINDS:
            raise TraceError(f"unknown sim event kind {kind!r}")
        event = TraceEvent(
            seq=self._next_seq,
            tick=self._tick,
            time_s=self._time_s,
            kind=kind,
            payload=_jsonable(payload or {}, kind),
        )
        self._next_seq += 1
        self._events.append(event)
        return event

    def emit_meta(self, kind: str, payload: dict[str, Any] | None = None) -> TraceEvent:
        """Record a meta event (excluded from the content hash)."""
        if kind not in META_KINDS:
            raise TraceError(f"unknown meta event kind {kind!r}")
        event = TraceEvent(
            seq=None,
            tick=self._tick,
            time_s=self._time_s,
            kind=kind,
            payload=_jsonable(payload or {}, kind),
        )
        self._events.append(event)
        return event

    def mark(self) -> int:
        """The sequence number the *next* sim event will receive.

        The supervisor snapshots this alongside every checkpoint; handing
        the same value back to :meth:`truncate_to_mark` rewinds the sim
        stream to exactly the checkpointed prefix.
        """
        return self._next_seq

    def truncate_to_mark(self, mark: int) -> int:
        """Drop sim events with ``seq >= mark``; keep all meta events.

        Called on recovery before replay: everything emitted after the
        restored checkpoint's mark - late ticks *and* the sim events of
        commands journaled after it - will be deterministically re-emitted
        by journal replay, so the stitched sim stream matches an
        uninterrupted run. Returns the number of events dropped.
        """
        if mark < 0:
            raise TraceError(f"trace mark must be non-negative, got {mark}")
        kept: list[TraceEvent] = []
        dropped = 0
        for event in self._events:
            if event.is_meta or event.seq < mark:  # type: ignore[operator]
                kept.append(event)
            else:
                dropped += 1
        self._events = kept
        self._next_seq = min(self._next_seq, mark)
        return dropped

    def content_hash(self) -> str:
        return trace_hash(self._events)


class NullTraceBus(TraceBus):
    """No-op bus: every emit is discarded. Shared default for all components."""

    active = False

    def __init__(self) -> None:
        self._events = []
        self._next_seq = 0
        self._tick = 0
        self._time_s = 0.0

    def begin_tick(self, tick: int, time_s: float) -> None:
        pass

    def emit(self, kind: str, payload: dict[str, Any] | None = None) -> TraceEvent:
        return _NULL_EVENT

    def emit_meta(self, kind: str, payload: dict[str, Any] | None = None) -> TraceEvent:
        return _NULL_EVENT


_NULL_EVENT = TraceEvent(seq=None, tick=0, time_s=0.0, kind="trace-header", payload={})

#: Shared stateless no-op bus; components default to this.
NULL_TRACE_BUS = NullTraceBus()


def canonical_line(event: TraceEvent) -> str:
    """The canonical JSON encoding of one event: sorted keys, no spaces."""
    return json.dumps(event.to_dict(), sort_keys=True, separators=(",", ":"))


def trace_hash(events: Iterable[TraceEvent]) -> str:
    """sha256 over the canonical sim-event lines (meta events excluded)."""
    digest = hashlib.sha256()
    for event in events:
        if event.is_meta:
            continue
        digest.update(canonical_line(event).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def write_trace(path: str | os.PathLike, source: TraceBus | Iterable[TraceEvent]) -> str:
    """Write events as canonical JSONL; returns the content hash."""
    events = source.events if isinstance(source, TraceBus) else list(source)
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(canonical_line(event))
            handle.write("\n")
    return trace_hash(events)


def read_trace(path: str | os.PathLike) -> list[TraceEvent]:
    """Parse a JSONL trace file; raises one-line :class:`TraceError` on damage.

    Lines are parsed as they are read, so the file's text is never held
    alongside the events it decodes to.
    """
    events: list[TraceEvent] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for index, line in enumerate(handle):
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise TraceError(
                        f"{path}: line {index + 1} is not valid JSON: {exc.msg}"
                    ) from exc
                events.append(TraceEvent.from_dict(doc, path=f"{path}: line {index + 1}"))
    except OSError as exc:
        raise TraceError(f"cannot read trace {path}: {exc.strerror or exc}") from exc
    return events


def verify_trace(
    events: list[TraceEvent],
    *,
    strict_kinds: bool = True,
) -> dict[str, int]:
    """Check run invariants on a trace; raises :class:`TraceError` on violation.

    The checks are exactly the ones a stitched (crash-restart) trace must
    also satisfy: a schema header, gap-free sim sequence numbers,
    non-decreasing tick cursor, one consecutive ``tick`` event per tick
    with non-decreasing sim time, wall power within 1e-6 W of the recorded
    cap unless the event is breach-flagged, and battery state of charge in
    [0, 1].

    With ``strict_kinds=False`` unknown event kinds are tolerated (counted
    in the returned ``unknown_kinds``) instead of raising - a newer writer's
    trace should still verify its structural invariants on an older reader.
    """
    if not events:
        raise TraceError("trace is empty")
    header = events[0]
    if header.kind != "trace-header":
        raise TraceError(f"first event is {header.kind!r}, expected 'trace-header'")
    schema = header.payload.get("schema")
    if schema != TRACE_SCHEMA_VERSION:
        raise TraceError(f"unsupported trace schema {schema!r} (expected {TRACE_SCHEMA_VERSION})")

    next_seq = 0
    last_tick = -1
    last_tick_event: TraceEvent | None = None
    breach_ticks = 0
    tick_events = 0
    unknown_kinds = 0
    for event in events:
        if event.kind not in SIM_KINDS and event.kind not in META_KINDS:
            if strict_kinds:
                raise TraceError(f"seq {event.seq}: unknown event kind {event.kind!r}")
            unknown_kinds += 1
        if event.is_meta:
            continue
        if event.seq != next_seq:
            raise TraceError(f"sequence gap: expected seq {next_seq}, found {event.seq}")
        next_seq += 1
        if event.tick < last_tick:
            raise TraceError(
                f"seq {event.seq}: tick cursor moved backwards ({last_tick} -> {event.tick})"
            )
        last_tick = event.tick
        if event.kind == "tick":
            tick_events += 1
            if last_tick_event is not None:
                if event.tick != last_tick_event.tick + 1:
                    raise TraceError(
                        f"seq {event.seq}: tick event jumped "
                        f"{last_tick_event.tick} -> {event.tick}"
                    )
                if event.time_s < last_tick_event.time_s:
                    raise TraceError(f"seq {event.seq}: simulation time moved backwards")
            last_tick_event = event
            wall_w = event.payload.get("wall_w")
            cap_w = event.payload.get("cap_w")
            breach = bool(event.payload.get("breach", False))
            if breach:
                breach_ticks += 1
            if (
                isinstance(wall_w, (int, float))
                and isinstance(cap_w, (int, float))
                and not breach
                and wall_w > cap_w + 1e-6
            ):
                raise TraceError(
                    f"seq {event.seq}: wall power {wall_w:.6f} W exceeds cap "
                    f"{cap_w:.6f} W without a breach flag"
                )
        if event.kind in ("tick", "battery"):
            soc = event.payload.get("soc")
            if isinstance(soc, (int, float)) and not -1e-9 <= soc <= 1.0 + 1e-9:
                raise TraceError(f"seq {event.seq}: state of charge {soc} outside [0, 1]")
    return {
        "events": len(events),
        "sim_events": next_seq,
        "ticks": tick_events,
        "breach_ticks": breach_ticks,
        "unknown_kinds": unknown_kinds,
    }


def summarize_trace(events: list[TraceEvent]) -> dict[str, Any]:
    """Aggregate a trace for display: kind counts, mode residency, span, hash.

    Kinds outside the known sim/meta sets are still counted in ``kinds``
    and tallied under ``other`` - summarization must never crash on a trace
    written by a newer schema.
    """
    kinds: dict[str, int] = {}
    modes: dict[str, int] = {}
    other = 0
    ticks = 0
    first_tick: int | None = None
    last_tick: int | None = None
    first_time = 0.0
    last_time = 0.0
    restarts = 0
    meta_events = 0
    for event in events:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
        if event.kind not in SIM_KINDS and event.kind not in META_KINDS:
            other += 1
        if event.is_meta:
            meta_events += 1
            if event.kind == "restore":
                restarts += 1
            continue
        if event.kind == "tick":
            ticks += 1
            if first_tick is None:
                first_tick = event.tick
                first_time = event.time_s
            last_tick = event.tick
            last_time = event.time_s
            mode = event.payload.get("mode")
            if isinstance(mode, str):
                modes[mode] = modes.get(mode, 0) + 1
    return {
        "events": len(events),
        "sim_events": len(events) - meta_events,
        "meta_events": meta_events,
        "ticks": ticks,
        "first_tick": first_tick,
        "last_tick": last_tick,
        "duration_s": (last_time - first_time) if ticks else 0.0,
        "kinds": dict(sorted(kinds.items())),
        "modes": dict(sorted(modes.items())),
        "other": other,
        "restarts": restarts,
        "hash": trace_hash(events),
    }
