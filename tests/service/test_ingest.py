"""Ingest buffer: backpressure policies, the safety lane, overload hysteresis."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, ServiceError
from repro.observability.metrics import MetricsRegistry
from repro.service import BACKPRESSURE_POLICIES, IngestBuffer
from repro.service.commands import (
    CancelJob,
    SetCapCommand,
    SubmitJob,
    command_from_dict,
    command_to_dict,
    is_cap_safety,
)
from repro.service.ingest import ACCEPTED, DEFERRED, REJECTED
from repro.workloads.catalog import CATALOG


def _submit(i):
    return SubmitJob(client=0, client_seq=i, profile=CATALOG["stream"])


def _buffer(policy, capacity=3, **kwargs):
    return IngestBuffer(
        capacity=capacity, policy=policy, metrics=MetricsRegistry(), **kwargs
    )


def test_validation():
    with pytest.raises(ConfigurationError):
        _buffer("reject", capacity=0)
    with pytest.raises(ConfigurationError):
        _buffer("round-robin")
    with pytest.raises(ConfigurationError):
        SetCapCommand(client=0, client_seq=0, p_cap_w=float("nan"))
    with pytest.raises(ConfigurationError):
        SubmitJob(client=-1, client_seq=0, profile=CATALOG["stream"])
    with pytest.raises(ConfigurationError):
        CancelJob(client=0, client_seq=0, app="")


def test_commands_round_trip_through_journal_form():
    commands = [
        _submit(0),
        CancelJob(client=1, client_seq=4, app="stream#c0j0"),
        SetCapCommand(client=9, client_seq=2, p_cap_w=80.0),
    ]
    for command in commands:
        assert command_from_dict(command_to_dict(command)) == command
    with pytest.raises(ServiceError):
        command_from_dict({"kind": "advance"})


@pytest.mark.parametrize("policy", BACKPRESSURE_POLICIES)
def test_accepts_until_full(policy):
    buffer = _buffer(policy)
    for i in range(3):
        assert buffer.offer(_submit(i)) == (ACCEPTED, None)
    assert buffer.occupancy == 3


def test_reject_policy_refuses_overflow():
    buffer = _buffer("reject")
    for i in range(3):
        buffer.offer(_submit(i))
    assert buffer.offer(_submit(3)) == (REJECTED, None)
    assert buffer.occupancy == 3
    assert buffer._metrics.counter("service.ingest.rejected").value == 1


def test_block_policy_defers_overflow():
    buffer = _buffer("block")
    for i in range(3):
        buffer.offer(_submit(i))
    assert buffer.offer(_submit(3)) == (DEFERRED, None)
    assert buffer.occupancy == 3  # the deferred command stays outside
    buffer.pop_regular(1)
    assert buffer.offer(_submit(3)) == (ACCEPTED, None)


def test_shed_oldest_policy_evicts_for_freshness():
    buffer = _buffer("shed-oldest")
    for i in range(3):
        buffer.offer(_submit(i))
    disposition, victim = buffer.offer(_submit(3))
    assert disposition == ACCEPTED
    assert victim == _submit(0)  # oldest goes
    drained = buffer.pop_regular(10)
    assert [c.client_seq for c in drained] == [1, 2, 3]
    assert buffer._metrics.counter("service.ingest.shed").value == 1


def test_safety_lane_is_never_full():
    buffer = _buffer("reject", capacity=1)
    buffer.offer(_submit(0))
    for seq in range(10):  # far past the regular capacity
        cap = SetCapCommand(client=9, client_seq=seq, p_cap_w=70.0 + seq)
        assert is_cap_safety(cap)
        assert buffer.offer(cap) == (ACCEPTED, None)
    assert buffer.safety_occupancy == 10
    assert buffer.occupancy == 1
    drained = buffer.pop_safety()
    assert len(drained) == 10 and buffer.safety_occupancy == 0
    assert buffer._metrics.counter("service.ingest.safety_accepted").value == 10
    # Shedding never touched safety even while the regular lane overflowed.
    assert buffer._metrics.counter("service.ingest.shed").value == 0


def test_overload_hysteresis():
    buffer = _buffer("reject", capacity=10)
    for i in range(7):
        buffer.offer(_submit(i))
    assert buffer.refresh_overload() is None  # 0.7 < enter 0.8
    buffer.offer(_submit(7))
    assert buffer.refresh_overload() == "enter"  # 0.8
    buffer.pop_regular(2)
    assert buffer.refresh_overload() is None  # 0.6 still above exit 0.5
    buffer.pop_regular(1)
    assert buffer.refresh_overload() == "exit"  # 0.5
    assert buffer.refresh_overload() is None


def test_state_round_trip():
    buffer = _buffer("shed-oldest")
    buffer.offer(_submit(0))
    buffer.offer(SetCapCommand(client=9, client_seq=0, p_cap_w=85.0))
    buffer.overloaded = True
    state = buffer.state_dict()
    import json

    state = json.loads(json.dumps(state))  # must ride in a JSON checkpoint
    restored = _buffer("shed-oldest")
    restored.load_state_dict(state)
    assert restored.occupancy == 1
    assert restored.safety_occupancy == 1
    assert restored.overloaded is True
    assert restored.pop_safety()[0].p_cap_w == 85.0
