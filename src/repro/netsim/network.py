"""A seeded message-passing layer with latency, loss, duplication, and cuts.

The cluster control plane exchanges messages between one controller and its
node agents over this network. The network is hub-and-spoke - every message
has the controller on one end - and deliberately hostile:

* **latency**: a message sent at step ``t`` arrives no earlier than
  ``t + 1 + latency_steps`` (one step in flight is the floor: the control
  plane can never act on same-step information, which is exactly the oracle
  assumption this subsystem exists to remove);
* **jitter**: a per-message uniform draw from ``[0, jitter_steps]`` added to
  the latency, which also *reorders* messages (a later send with a smaller
  draw overtakes an earlier one);
* **loss**: each message copy is dropped independently with probability
  ``loss``;
* **duplication**: with probability ``duplicate`` a second copy is enqueued
  with its own jitter draw (protocols above must be idempotent);
* **partitions**: during a :class:`PartitionWindow` the named nodes are cut
  off from the controller in both directions; messages crossing the cut at
  send *or* delivery time are dropped (a message cannot outrun a partition
  that closes around it).

Everything stochastic comes from one ``numpy`` generator seeded from
``NetConfig.seed`` and consumed in send order, so a (config, message
sequence) pair replays bit-identically - the same determinism contract as
the fault injector and the chaos kill schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import NetworkError

__all__ = ["CONTROLLER", "NetConfig", "NetStats", "PartitionWindow", "SimNetwork"]

#: Endpoint id of the cluster controller (nodes are ``0..n-1``).
CONTROLLER = -1


@dataclass(frozen=True)
class PartitionWindow:
    """One interval during which a set of nodes cannot reach the controller.

    Steps are half-open (``start_step <= t < end_step``), matching
    :class:`~repro.cluster.cluster.NodeOutage`. A partitioned node is alive -
    it keeps enforcing its caps and expiring its leases - it just cannot
    hear from or be heard by the controller.

    Attributes:
        start_step: First step of the cut.
        end_step: First step after the heal.
        nodes: The node ids on the far side of the cut.
    """

    start_step: int
    end_step: int
    nodes: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.start_step < 0:
            raise NetworkError("partition start_step must be non-negative")
        if self.end_step <= self.start_step:
            raise NetworkError("partition end_step must exceed start_step")
        if not self.nodes:
            raise NetworkError("partition needs at least one node")
        if any(n < 0 for n in self.nodes):
            raise NetworkError("partition node ids must be non-negative")
        object.__setattr__(self, "nodes", tuple(sorted(set(self.nodes))))

    def cuts(self, step: int, node: int) -> bool:
        """Whether ``node`` is unreachable at ``step`` under this window."""
        return self.start_step <= step < self.end_step and node in self.nodes


@dataclass(frozen=True)
class NetConfig:
    """Tunables of the simulated network.

    Attributes:
        latency_steps: Deterministic delivery delay on top of the one-step
            in-flight floor.
        jitter_steps: Inclusive upper bound on the per-message uniform extra
            delay (also the reordering source).
        loss: Per-message-copy drop probability.
        duplicate: Probability a message is enqueued twice.
        partitions: Scheduled controller<->node cuts.
        lossy_until_step: When set, ``loss``/``duplicate`` apply only to
            messages sent before this step - the network is clean afterwards.
            Chaos schedules use this to guarantee a convergent drain phase.
        seed: Seed for every stochastic decision above.
    """

    latency_steps: int = 0
    jitter_steps: int = 0
    loss: float = 0.0
    duplicate: float = 0.0
    partitions: tuple[PartitionWindow, ...] = ()
    lossy_until_step: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.latency_steps < 0:
            raise NetworkError("latency_steps must be non-negative")
        if self.jitter_steps < 0:
            raise NetworkError("jitter_steps must be non-negative")
        if not 0.0 <= self.loss < 1.0:
            raise NetworkError(f"loss must be in [0, 1), got {self.loss}")
        if not 0.0 <= self.duplicate <= 1.0:
            raise NetworkError(
                f"duplicate must be in [0, 1], got {self.duplicate}"
            )
        if self.lossy_until_step is not None and self.lossy_until_step < 0:
            raise NetworkError("lossy_until_step must be non-negative")
        object.__setattr__(
            self,
            "partitions",
            tuple(
                sorted(
                    self.partitions,
                    key=lambda w: (w.start_step, w.end_step, w.nodes),
                )
            ),
        )

    def cut(self, step: int, node: int) -> bool:
        """Whether ``node`` is partitioned from the controller at ``step``."""
        return any(w.cuts(step, node) for w in self.partitions)


@dataclass
class NetStats:
    """Message accounting for one network's lifetime."""

    sent: int = 0
    delivered: int = 0
    duplicated: int = 0
    dropped_loss: int = 0
    dropped_partition: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "duplicated": self.duplicated,
            "dropped_loss": self.dropped_loss,
            "dropped_partition": self.dropped_partition,
        }


class SimNetwork:
    """The message fabric between one controller and ``n_nodes`` agents.

    Endpoints call :meth:`send` during their step and :meth:`deliver` at the
    top of the next; the network owns every fate in between. Each queued
    copy is a ``(deliver_step, uid, src, payload)`` tuple: ``uid`` is the
    send order, unique per network, so sorting the tuples orders equal-step
    deliveries by send order and never compares payloads.
    """

    def __init__(self, config: NetConfig, n_nodes: int) -> None:
        if n_nodes < 1:
            raise NetworkError("network needs at least one node")
        for window in config.partitions:
            if any(n >= n_nodes for n in window.nodes):
                raise NetworkError(
                    f"partition names node {max(window.nodes)} "
                    f"but the fleet has {n_nodes} nodes"
                )
        self._config = config
        self._n_nodes = n_nodes
        self._rng = np.random.default_rng(config.seed)
        self._queues: dict[int, list[tuple[int, int, int, Any]]] = {}
        self._uid = 0
        self.stats = NetStats()

    def _endpoint_node(self, src: int, dst: int) -> int:
        """The non-controller endpoint of a message (partitions cut nodes)."""
        return dst if src == CONTROLLER else src

    def _check_endpoint(self, endpoint: int) -> None:
        if endpoint != CONTROLLER and not 0 <= endpoint < self._n_nodes:
            raise NetworkError(
                f"unknown endpoint {endpoint} (controller is {CONTROLLER}, "
                f"nodes are 0..{self._n_nodes - 1})"
            )

    def _lossy_at(self, step: int) -> bool:
        until = self._config.lossy_until_step
        return until is None or step < until

    def send(self, src: int, dst: int, payload: Any, step: int) -> None:
        """Submit one message at ``step``; the network decides its fate.

        The loss/duplication draws happen for every submitted message, in
        send order, whether or not a partition already doomed it - so adding
        a partition window never shifts the RNG stream of unrelated
        messages.
        """
        self._check_endpoint(src)
        self._check_endpoint(dst)
        if src == dst:
            raise NetworkError(f"endpoint {src} cannot message itself")
        if src != CONTROLLER and dst != CONTROLLER:
            raise NetworkError("node-to-node messages are not part of the fabric")
        self.stats.sent += 1
        copies = 1
        if self._lossy_at(step):
            if self._config.loss > 0 and self._rng.random() < self._config.loss:
                copies = 0
            if (
                self._config.duplicate > 0
                and self._rng.random() < self._config.duplicate
            ):
                copies += 1
        if copies == 0:
            self.stats.dropped_loss += 1
            return
        if copies > 1:
            self.stats.duplicated += copies - 1
        # A fabric with no scheduled cuts skips the partition lookup.
        cut_at_send = bool(self._config.partitions) and self._config.cut(
            step, self._endpoint_node(src, dst)
        )
        for _ in range(copies):
            delay = 1 + self._config.latency_steps
            if self._config.jitter_steps > 0:
                delay += int(self._rng.integers(0, self._config.jitter_steps + 1))
            if cut_at_send:
                self.stats.dropped_partition += 1
                continue
            self._queues.setdefault(dst, []).append(
                (step + delay, self._uid, src, payload)
            )
            self._uid += 1

    def deliver(self, dst: int, step: int) -> list[tuple[int, Any]]:
        """Messages due at ``dst`` by ``step``, in (deliver_step, send) order.

        A message whose destination-side node is partitioned at delivery
        time is dropped, not delayed: the cut closed around it.
        """
        self._check_endpoint(dst)
        queue = self._queues.get(dst)
        if not queue:
            return []
        due = [m for m in queue if m[0] <= step]
        if not due:
            return []
        self._queues[dst] = [m for m in queue if m[0] > step]
        due.sort()
        out: list[tuple[int, Any]] = []
        for _, _, src, payload in due:
            if self._config.partitions and self._config.cut(
                step, self._endpoint_node(src, dst)
            ):
                self.stats.dropped_partition += 1
                continue
            self.stats.delivered += 1
            out.append((src, payload))
        return out

    def in_flight(self) -> int:
        """Messages queued but not yet delivered or dropped."""
        return sum(len(q) for q in self._queues.values())
