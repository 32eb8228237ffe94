"""Differential suite: :class:`SimNetwork` against its reference model.

``ReferenceSimNetwork`` below is the straightforward form of the fabric:
one frozen dataclass per in-flight copy and a partition lookup for every
message. The production class carries in-flight copies as plain tuples
and skips the lookup when no window is scheduled; both must make the same
RNG draws in the same order and reach the same fate for every copy. Each
schedule drives the two side by side and compares, after every step, the
deliveries, the message accounting, the in-flight count and the
generator state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import pytest

from repro.errors import NetworkError
from repro.netsim.network import (
    CONTROLLER,
    NetConfig,
    NetStats,
    PartitionWindow,
    SimNetwork,
)


@dataclass(frozen=True)
class _InFlight:
    deliver_step: int
    uid: int  # send-order tiebreak: equal-step deliveries keep send order
    src: int
    payload: Any = field(compare=False)


class ReferenceSimNetwork:
    """The message fabric between one controller and ``n_nodes`` agents."""

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
        self._queues: dict[int, list[_InFlight]] = {}
        self._uid = 0
        self.stats = NetStats()

    def _endpoint_node(self, src: int, dst: int) -> int:
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
        node = self._endpoint_node(src, dst)
        cut_at_send = self._config.cut(step, node)
        for _ in range(copies):
            delay = 1 + self._config.latency_steps
            if self._config.jitter_steps > 0:
                delay += int(self._rng.integers(0, self._config.jitter_steps + 1))
            if cut_at_send:
                self.stats.dropped_partition += 1
                continue
            self._queues.setdefault(dst, []).append(
                _InFlight(
                    deliver_step=step + delay,
                    uid=self._uid,
                    src=src,
                    payload=payload,
                )
            )
            self._uid += 1

    def deliver(self, dst: int, step: int) -> list[tuple[int, Any]]:
        self._check_endpoint(dst)
        queue = self._queues.get(dst)
        if not queue:
            return []
        due = [m for m in queue if m.deliver_step <= step]
        if not due:
            return []
        self._queues[dst] = [m for m in queue if m.deliver_step > step]
        due.sort(key=lambda m: (m.deliver_step, m.uid))
        out: list[tuple[int, Any]] = []
        for message in due:
            node = self._endpoint_node(message.src, dst)
            if self._config.cut(step, node):
                self.stats.dropped_partition += 1
                continue
            self.stats.delivered += 1
            out.append((message.src, message.payload))
        return out

    def in_flight(self) -> int:
        return sum(len(q) for q in self._queues.values())


N_NODES = 5
STEPS = 30

PARTITIONS = {
    "none": (),
    # Opens at step 8, after copies bound for nodes 1 and 2 are in flight:
    # the cut closes around them and they die at delivery.
    "one": (PartitionWindow(8, 14, (1, 2)),),
    "overlapping": (
        PartitionWindow(8, 14, (1, 2)),
        PartitionWindow(11, 20, (2, 4)),
    ),
}


def _assert_same(ref: ReferenceSimNetwork, net: SimNetwork) -> None:
    assert net.stats.to_dict() == ref.stats.to_dict()
    assert net.in_flight() == ref.in_flight()
    assert net._rng.bit_generator.state == ref._rng.bit_generator.state


def _drive(config: NetConfig) -> None:
    ref = ReferenceSimNetwork(config, N_NODES)
    net = SimNetwork(config, N_NODES)
    schedule = np.random.default_rng(5)
    endpoints = [CONTROLLER, *range(N_NODES)]
    for step in range(STEPS + 8):
        if step < STEPS:
            for i in range(int(schedule.integers(0, 9))):
                node = int(schedule.integers(0, N_NODES))
                src, dst = (
                    (CONTROLLER, node) if schedule.random() < 0.5 else (node, CONTROLLER)
                )
                payload = ("msg", step, i)
                ref.send(src, dst, payload, step)
                net.send(src, dst, payload, step)
                _assert_same(ref, net)
        draining = step >= STEPS
        for endpoint in endpoints:
            # Skipped deliveries let copies due at different steps pile
            # up, so the (deliver_step, send order) sort is exercised.
            if not draining and schedule.random() < 0.25:
                continue
            assert net.deliver(endpoint, step) == ref.deliver(endpoint, step)
        _assert_same(ref, net)
    assert net.in_flight() == 0


@pytest.mark.parametrize("partitions", list(PARTITIONS))
@pytest.mark.parametrize("lossy_until_step", [None, 10])
@pytest.mark.parametrize(
    "loss, duplicate, jitter, latency",
    list(itertools.product([0.0, 0.3], [0.0, 0.5, 1.0], [0, 3], [0, 2])),
)
def test_matches_reference_step_by_step(
    loss, duplicate, jitter, latency, lossy_until_step, partitions
):
    config = NetConfig(
        latency_steps=latency,
        jitter_steps=jitter,
        loss=loss,
        duplicate=duplicate,
        partitions=PARTITIONS[partitions],
        lossy_until_step=lossy_until_step,
        seed=17,
    )
    _drive(config)


def _error_of(thunk) -> str:
    with pytest.raises(NetworkError) as info:
        thunk()
    return str(info.value)


@pytest.mark.parametrize(
    "call",
    [
        lambda n: n.send(0, 9, "x", 0),
        lambda n: n.send(-4, 0, "x", 0),
        lambda n: n.deliver(9, 0),
        lambda n: n.send(2, 2, "x", 0),
        lambda n: n.send(CONTROLLER, CONTROLLER, "x", 0),
        lambda n: n.send(0, 1, "x", 0),
    ],
    ids=[
        "unknown-dst",
        "unknown-src",
        "unknown-deliver",
        "self-send",
        "controller-self-send",
        "node-to-node",
    ],
)
def test_raises_the_reference_errors(call):
    config = NetConfig(partitions=PARTITIONS["one"], seed=3)
    expected = _error_of(lambda: call(ReferenceSimNetwork(config, N_NODES)))
    assert _error_of(lambda: call(SimNetwork(config, N_NODES))) == expected


@pytest.mark.parametrize(
    "config, n_nodes",
    [
        (NetConfig(), 0),
        (NetConfig(partitions=(PartitionWindow(0, 5, (7,)),)), 4),
    ],
    ids=["no-nodes", "partition-past-fleet"],
)
def test_rejects_the_reference_configurations(config, n_nodes):
    expected = _error_of(lambda: ReferenceSimNetwork(config, n_nodes))
    assert _error_of(lambda: SimNetwork(config, n_nodes)) == expected
