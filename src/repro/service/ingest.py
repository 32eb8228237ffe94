"""The bounded ingest buffer and its explicit backpressure policies.

Open-loop traffic does not slow down because the mediator is busy, so the
buffer between clients and the event loop must be bounded and must say -
loudly - what happens when it fills. Three policies, chosen at
construction:

``block``
    The offer is *deferred*: the client's request stays in flight and is
    re-offered next tick. Models a blocking client library; offered load
    backs up outside the service rather than inside it.
``reject``
    The offer is refused with a NACK delivery to the submitting client.
``shed-oldest``
    The new offer is accepted and the *oldest* buffered regular command is
    shed (its client is NACKed). Freshness-biased, as a telemetry-style
    ingest wants.

Two lanes. Cap-safety commands (:func:`~repro.service.commands.is_cap_safety`)
go to a dedicated lane that no policy ever sheds, rejects, or defers - the
power-budget invariant must survive ingest saturation - and the event loop
drains that lane fully before admitting any regular command. Every
disposition is counted in the :class:`~repro.observability.metrics.MetricsRegistry`
under ``service.ingest.*``; nothing is dropped silently.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigurationError, ServiceError
from repro.observability.metrics import MetricsRegistry
from repro.service.commands import Command, command_from_dict, command_to_dict, is_cap_safety

__all__ = ["BACKPRESSURE_POLICIES", "IngestBuffer"]

#: The backpressure policies the buffer understands.
BACKPRESSURE_POLICIES = ("block", "reject", "shed-oldest")

#: Occupancy hysteresis of the overload posture: crossing the enter mark
#: flips :attr:`IngestBuffer.overloaded` on, falling to the exit mark flips
#: it off (enter > exit, so the posture does not flap).
OVERLOAD_ENTER_FRACTION = 0.8
OVERLOAD_EXIT_FRACTION = 0.5

#: Dispositions :meth:`IngestBuffer.offer` can return.
ACCEPTED = "accepted"
REJECTED = "rejected"
DEFERRED = "deferred"


class IngestBuffer:
    """A two-lane command buffer with a bounded regular lane.

    Args:
        capacity: Maximum buffered regular commands.
        policy: One of :data:`BACKPRESSURE_POLICIES`.
        metrics: Registry receiving the ``service.ingest.*`` counters.
    """

    def __init__(
        self,
        *,
        capacity: int,
        policy: str,
        metrics: MetricsRegistry,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(f"ingest capacity must be >= 1, got {capacity}")
        if policy not in BACKPRESSURE_POLICIES:
            raise ConfigurationError(
                f"unknown backpressure policy {policy!r} "
                f"(choose from {', '.join(BACKPRESSURE_POLICIES)})"
            )
        self.capacity = int(capacity)
        self.policy = policy
        self._metrics = metrics
        self._safety: deque[Command] = deque()
        self._regular: deque[Command] = deque()
        self.overloaded = False

    # ------------------------------------------------------------ occupancy

    @property
    def occupancy(self) -> int:
        return len(self._regular)

    @property
    def safety_occupancy(self) -> int:
        return len(self._safety)

    def refresh_overload(self) -> str | None:
        """Update the overload posture; returns ``"enter"``/``"exit"`` on a
        transition, ``None`` otherwise. Called once per tick by the loop."""
        fraction = len(self._regular) / self.capacity
        if not self.overloaded and fraction >= OVERLOAD_ENTER_FRACTION:
            self.overloaded = True
            self._metrics.counter("service.overload.entered").inc()
            return "enter"
        if self.overloaded and fraction <= OVERLOAD_EXIT_FRACTION:
            self.overloaded = False
            self._metrics.counter("service.overload.exited").inc()
            return "exit"
        return None

    # ----------------------------------------------------------------- offer

    def offer(self, command: Command) -> tuple[str, Command | None]:
        """Offer one command; returns ``(disposition, shed_victim)``.

        Cap-safety commands are always accepted into their own lane. For a
        full regular lane the configured policy decides: ``reject`` returns
        ``(REJECTED, None)``, ``block`` returns ``(DEFERRED, None)`` (the
        caller re-offers next tick), and ``shed-oldest`` accepts the new
        command and returns the evicted victim for NACKing.
        """
        if is_cap_safety(command):
            self._safety.append(command)
            self._metrics.counter("service.ingest.safety_accepted").inc()
            return ACCEPTED, None
        if len(self._regular) < self.capacity:
            self._regular.append(command)
            self._metrics.counter("service.ingest.accepted").inc()
            return ACCEPTED, None
        if self.policy == "reject":
            self._metrics.counter("service.ingest.rejected").inc()
            return REJECTED, None
        if self.policy == "block":
            self._metrics.counter("service.ingest.deferred").inc()
            return DEFERRED, None
        # shed-oldest: the new command is fresher than the oldest buffered one
        victim = self._regular.popleft()
        self._regular.append(command)
        self._metrics.counter("service.ingest.accepted").inc()
        self._metrics.counter("service.ingest.shed").inc()
        return ACCEPTED, victim

    # ----------------------------------------------------------------- drain

    def pop_safety(self) -> list[Command]:
        """Every buffered cap-safety command, oldest first (always all of
        them: safety commands are never rationed)."""
        drained = list(self._safety)
        self._safety.clear()
        return drained

    def pop_regular(self, limit: int) -> list[Command]:
        """Up to ``limit`` regular commands, oldest first."""
        if limit < 0:
            raise ServiceError(f"drain limit must be non-negative, got {limit}")
        drained: list[Command] = []
        while self._regular and len(drained) < limit:
            drained.append(self._regular.popleft())
        return drained

    # ------------------------------------------------------------ checkpoint

    def state_dict(self) -> dict:
        return {
            "safety": [command_to_dict(c) for c in self._safety],
            "regular": [command_to_dict(c) for c in self._regular],
            "overloaded": self.overloaded,
        }

    def load_state_dict(self, state: dict) -> None:
        self._safety = deque(command_from_dict(c) for c in state["safety"])
        self._regular = deque(command_from_dict(c) for c in state["regular"])
        self.overloaded = bool(state["overloaded"])
