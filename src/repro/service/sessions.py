"""Client sessions: sequence-numbered delivery and replay-on-reconnect.

Each simulated client holds one :class:`ClientSession`. The service pushes
**deliveries** - acknowledgements, NACKs, job completions, periodic
telemetry - into the session, each stamped with a per-client monotone
sequence number. A connected client consumes deliveries as they are made;
a disconnected client's deliveries keep accruing sequence numbers in a
bounded retained window, and on reconnect the session **replays** exactly
the missed suffix, verifying it is gap-free (first replayed seq is the
cursor + 1 and the seqs are contiguous). A gap means the retained window
was outlived - the session raises :class:`~repro.errors.ServiceError`
rather than silently skipping data.

Sessions are part of the service checkpoint, so delivery sequence numbers
survive supervisor warm restarts: recovery restores the sessions at the
checkpoint tick and deterministic re-execution regenerates the exact
deliveries the crash destroyed, cursor and all. A checkpoint writes each
session's cursors into its document and only the deliveries made since the
previous checkpoint into the history log; recovery refills each window with
the newest ``window_size`` deliveries the log holds for that client.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigurationError, ServiceError
from repro.observability.metrics import MetricsRegistry

__all__ = ["ClientSession", "Delivery", "SessionRegistry"]


@dataclass(frozen=True)
class Delivery:
    """One sequenced message from the service to a client."""

    seq: int
    tick: int
    kind: str
    payload: dict[str, Any]

    def to_dict(self) -> dict:
        return {"seq": self.seq, "tick": self.tick, "kind": self.kind, "payload": self.payload}

    @classmethod
    def from_dict(cls, data: dict) -> "Delivery":
        return cls(
            seq=int(data["seq"]),
            tick=int(data["tick"]),
            kind=str(data["kind"]),
            payload=dict(data["payload"]),
        )


class ClientSession:
    """Delivery stream state for one client.

    Args:
        client: Client id.
        window: Retained deliveries (bounds replay depth and memory).
        connected: Whether the client starts attached.
    """

    def __init__(self, client: int, *, window: int, connected: bool = True) -> None:
        if window < 1:
            raise ConfigurationError(f"session window must be >= 1, got {window}")
        self.client = client
        self.window_size = int(window)
        self.connected = connected
        self._window: deque[Delivery] = deque(maxlen=self.window_size)
        self._next_seq = 0
        # Highest seq the client has consumed; frozen while disconnected.
        self._delivered_through = -1

    @property
    def delivered_through(self) -> int:
        return self._delivered_through

    def deliver(self, tick: int, kind: str, payload: dict[str, Any]) -> Delivery:
        """Stamp and retain one delivery; a connected client consumes it now."""
        delivery = Delivery(seq=self._next_seq, tick=tick, kind=kind, payload=payload)
        self._next_seq += 1
        self._window.append(delivery)
        if self.connected:
            self._delivered_through = delivery.seq
        return delivery

    def disconnect(self) -> None:
        self.connected = False

    def reconnect(self) -> list[Delivery]:
        """Re-attach and replay the missed suffix, verifying it is gap-free.

        Returns the replayed deliveries (possibly empty). Raises
        :class:`ServiceError` if the retained window no longer covers the
        client's cursor - the stream has a hole that replay cannot fill.
        """
        self.connected = True
        missed = [d for d in self._window if d.seq > self._delivered_through]
        expected = self._delivered_through + 1
        if missed and missed[0].seq != expected:
            raise ServiceError(
                f"client {self.client}: replay gap - cursor expects seq {expected} "
                f"but the oldest retained delivery is seq {missed[0].seq} "
                f"(window of {self.window_size} outlived)"
            )
        if not missed and self._next_seq - 1 > self._delivered_through:
            raise ServiceError(
                f"client {self.client}: replay gap - deliveries through "
                f"{self._next_seq - 1} exist but none after cursor "
                f"{self._delivered_through} are retained"
            )
        for index, delivery in enumerate(missed):
            if delivery.seq != expected + index:
                raise ServiceError(
                    f"client {self.client}: replay gap - seq {delivery.seq} follows "
                    f"{expected + index - 1} non-contiguously"
                )
        if missed:
            self._delivered_through = missed[-1].seq
        return missed

    def state_dict(self, *, window_from: int = 0) -> dict:
        """Snapshot the session; ``window`` keeps only the retained
        deliveries with ``seq >= window_from`` (all of them by default), for
        a caller that already holds the older ones."""
        return {
            "client": self.client,
            "window_size": self.window_size,
            "connected": self.connected,
            "next_seq": self._next_seq,
            "delivered_through": self._delivered_through,
            "window": [d.to_dict() for d in self._window if d.seq >= window_from],
        }

    @classmethod
    def from_state(cls, state: dict) -> "ClientSession":
        session = cls(
            int(state["client"]),
            window=int(state["window_size"]),
            connected=bool(state["connected"]),
        )
        session._next_seq = int(state["next_seq"])
        session._delivered_through = int(state["delivered_through"])
        for doc in state["window"]:
            session._window.append(Delivery.from_dict(doc))
        return session


class SessionRegistry:
    """All client sessions, plus the delivery counters.

    Args:
        clients: Number of client sessions to create (ids ``0..clients-1``).
        window: Retained-delivery window per session.
        metrics: Registry receiving ``service.sessions.*`` counters.
    """

    def __init__(self, *, clients: int, window: int, metrics: MetricsRegistry) -> None:
        if clients < 1:
            raise ConfigurationError(f"need at least one client, got {clients}")
        self._metrics = metrics
        self._sessions = {
            client: ClientSession(client, window=window) for client in range(clients)
        }

    def __len__(self) -> int:
        return len(self._sessions)

    def session(self, client: int) -> ClientSession:
        try:
            return self._sessions[client]
        except KeyError:
            raise ServiceError(f"unknown client {client}") from None

    def sessions(self) -> list[ClientSession]:
        return [self._sessions[c] for c in sorted(self._sessions)]

    def connected_count(self) -> int:
        return sum(1 for s in self._sessions.values() if s.connected)

    def deliver(self, client: int, tick: int, kind: str, payload: dict[str, Any]) -> Delivery:
        self._metrics.counter("service.sessions.deliveries").inc()
        return self.session(client).deliver(tick, kind, payload)

    def broadcast(self, tick: int, kind: str, payload: dict[str, Any]) -> None:
        """Deliver to every session - connected or not; absent clients will
        replay the broadcast on reconnect."""
        for session in self.sessions():
            self._metrics.counter("service.sessions.deliveries").inc()
            session.deliver(tick, kind, payload)

    def disconnect(self, client: int) -> None:
        session = self.session(client)
        if session.connected:
            session.disconnect()
            self._metrics.counter("service.sessions.disconnects").inc()

    def reconnect(self, client: int) -> list[Delivery]:
        session = self.session(client)
        if session.connected:
            return []
        missed = session.reconnect()
        self._metrics.counter("service.sessions.reconnects").inc()
        self._metrics.counter("service.sessions.replayed").inc(len(missed))
        return missed

    def state_dict(self, *, windows_from: dict[int, int] | None = None) -> dict:
        """Every session's snapshot; ``windows_from`` maps a client to the
        ``window_from`` cursor of its session (0 when absent)."""
        cursors = windows_from or {}
        return {
            "sessions": [
                s.state_dict(window_from=cursors.get(s.client, 0)) for s in self.sessions()
            ]
        }

    def load_state_dict(self, state: dict) -> None:
        restored = {}
        for doc in state["sessions"]:
            session = ClientSession.from_state(doc)
            restored[session.client] = session
        self._sessions = restored
