"""The service event loop: pipeline semantics, config validation, recovery."""

from __future__ import annotations

import json

import pytest

from repro.errors import CheckpointError, ConfigurationError
from repro.observability.trace import summarize_trace
from repro.persistence import HISTORY_LOG, checkpoint_filename, read_journal
from repro.service import MediatorService, ServiceConfig, ServiceKilled
from repro.workloads import BurstWindow
from tests.persistence.history_log import (
    OWNER_DAMAGE,
    append_strays,
    damage_owner_state,
    document,
    log_items,
    log_records,
    tamper,
    tamper_ids,
)

# The small, fast recipe lives in the shared ``service_cfg`` fixture
# (tests/conftest.py); tests override individual keys inline.


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ServiceConfig(policy="does-not-exist")
    with pytest.raises(ConfigurationError):
        ServiceConfig(rate_per_s=float("inf"))
    with pytest.raises(ConfigurationError):
        ServiceConfig(backpressure="drop-newest")
    with pytest.raises(ConfigurationError):
        ServiceConfig(cap_levels=(90.0, -1.0))
    with pytest.raises(ConfigurationError):
        ServiceConfig(drain_per_tick=0)


def test_open_loop_run_admits_and_completes_jobs(service_cfg, tmp_path):
    config = ServiceConfig(**{**service_cfg, "work_scale": 0.02})
    service = MediatorService(config, tmp_path)
    service.run_for_ticks(400)
    service.close()
    counters = dict(service.metrics.counters())
    assert service.tick == 400
    assert service.mediator.tick_count == 400
    assert counters["service.admit.admitted"] >= 1
    assert counters["service.jobs.completed"] >= 1
    assert counters["service.sessions.deliveries"] > 0


def test_cap_schedule_flows_through_the_safety_lane(service_cfg, tmp_path):
    config = ServiceConfig(**service_cfg)
    service = MediatorService(config, tmp_path)
    service.run_for_ticks(200)  # cap changes at ticks 80 and 160
    service.close()
    counters = dict(service.metrics.counters())
    assert counters["service.commands.cap_applied"] == 2
    assert counters["service.ingest.safety_accepted"] == 2
    assert service.mediator.p_cap_w == 105.0  # second level in force
    # The provisioner got an acknowledgement for each change.
    provisioner = service.sessions.session(config.provisioner_client)
    assert provisioner.state_dict()["next_seq"] >= 2


def test_identical_runs_hash_identically(service_cfg, tmp_path):
    a = MediatorService(ServiceConfig(**service_cfg), tmp_path / "a")
    b = MediatorService(ServiceConfig(**service_cfg), tmp_path / "b")
    a.run_for_ticks(150)
    b.run_for_ticks(150)
    a.close()
    b.close()
    assert a.content_hash() == b.content_hash()
    assert dict(a.metrics.counters()) == dict(b.metrics.counters())


def test_journal_records_ticks_and_checkpoint_markers(service_cfg, tmp_path):
    # Commands are not journaled: recovery re-executes the ticks, and the
    # seeded arrivals issue the same commands again.
    service = MediatorService(ServiceConfig(**service_cfg), tmp_path)
    service.run_for_ticks(120)
    service.close()
    ops = [r["op"] for r in read_journal(service.journal_dir)]
    assert ops[0] == "meta"
    assert ops.count("tick") == 120
    assert ops.count("checkpoint") >= 2  # tick 0 + every 50
    assert set(ops) == {"meta", "tick", "checkpoint"}


@pytest.fixture(scope="module")
def baseline(service_cfg, tmp_path_factory):
    """The uninterrupted 160-tick run every kill schedule must reproduce."""
    service = MediatorService(ServiceConfig(**service_cfg), tmp_path_factory.mktemp("base"))
    service.run_for_ticks(160)
    service.close()
    return service


def _killer(*ticks, before=None):
    """A tick hook that kills the service once at each of ``ticks``, calling
    ``before()`` first when given (to damage what recovery will read)."""
    pending = set(ticks)

    def hook(tick):
        if tick in pending:
            pending.discard(tick)
            if before is not None:
                before()
            raise ServiceKilled("chaos")

    return hook


def _assert_same_run(chaos, baseline):
    assert chaos.tick == 160
    assert chaos.content_hash() == baseline.content_hash()
    assert chaos.mediator.timeline == baseline.mediator.timeline
    # Every history the log carries comes back whole: the mediator's and
    # each session's window.
    assert chaos.mediator.state_dict() == baseline.mediator.state_dict()
    assert chaos.sessions.state_dict() == baseline.sessions.state_dict()
    # Sim-side accounting matches the uninterrupted run exactly.
    counters = dict(chaos.metrics.counters())
    base_counters = dict(baseline.metrics.counters())
    for name in ("service.sessions.deliveries", "service.admit.admitted",
                 "service.commands.cap_applied", "service.ingest.accepted"):
        assert counters.get(name) == base_counters.get(name), name


def test_kill_and_warm_restart_is_invisible_in_the_stream(service_cfg, tmp_path, baseline):
    chaos = MediatorService(
        ServiceConfig(**service_cfg),
        tmp_path / "chaos",
        tick_hook=_killer(77),
        tear_journal_bytes_on_crash=128,
    )
    chaos.run_for_ticks(160)
    chaos.close()
    _assert_same_run(chaos, baseline)
    counters = dict(chaos.metrics.counters())
    assert counters["service.restarts"] == 1
    assert counters["service.replayed_ticks"] >= 1


@pytest.mark.parametrize(
    "kills",
    [(99,), (100,), (101,), (77, 78)],
    ids=["before-checkpoint", "checkpoint-tick", "after-checkpoint", "two-in-a-row"],
)
def test_recovered_timeline_equals_the_uninterrupted_one(
    service_cfg, tmp_path, baseline, kills
):
    # Checkpoints land every 50 ticks: the one at tick 100 is written at the
    # end of tick 99, so a kill at 99 replays from 50 and one at 100 from 100.
    chaos = MediatorService(ServiceConfig(**service_cfg), tmp_path, tick_hook=_killer(*kills))
    chaos.run_for_ticks(160)
    chaos.close()
    _assert_same_run(chaos, baseline)
    assert dict(chaos.metrics.counters())["service.restarts"] == len(kills)


def test_a_second_run_in_the_same_workdir_recovers(service_cfg, tmp_path, baseline):
    # The first run's journal and its newer documents stay behind unless a
    # fresh run clears them; retention would then keep the stale documents.
    first = MediatorService(ServiceConfig(**service_cfg), tmp_path)
    first.run_for_ticks(160)
    first.close()
    chaos = MediatorService(ServiceConfig(**service_cfg), tmp_path, tick_hook=_killer(77))
    chaos.run_for_ticks(160)
    chaos.close()
    _assert_same_run(chaos, baseline)
    assert dict(chaos.metrics.counters())["service.restarts"] == 1


def test_a_kill_inside_recovery_counts_as_a_restart(service_cfg, tmp_path, baseline):
    # The kill at 120 restores the checkpoint at 100 and re-executes
    # 100..119 through the tick hook: the kill at 110 lands inside it.
    pending = [120, 110]

    def hook(tick):
        if pending and tick == pending[0]:
            pending.pop(0)
            raise ServiceKilled("chaos")

    chaos = MediatorService(ServiceConfig(**service_cfg), tmp_path, tick_hook=hook)
    chaos.run_for_ticks(160)
    chaos.close()
    _assert_same_run(chaos, baseline)
    assert pending == []
    assert dict(chaos.metrics.counters())["service.restarts"] == 2
    # One meta vocabulary with the supervisor: every recovery emits restore
    # (the summary's restarts), every checkpoint a checkpoint event.
    summary = summarize_trace(chaos.trace_bus.events)
    assert summary["restarts"] == 2
    assert summary["kinds"]["crash"] == 2
    assert summary["kinds"]["replayed"] == 1  # the first recovery never reopened
    assert summary["kinds"]["checkpoint"] >= 2


#: A load that finishes jobs before the checkpoint at tick 100, so the log
#: holds every line kind by then.
_QUICK_JOBS = {"work_scale": 0.005}


def test_checkpoints_append_the_timeline_to_the_log(service_cfg, tmp_path):
    log = tmp_path / "checkpoints" / HISTORY_LOG
    log.parent.mkdir()
    log.write_text("left over from another run\n")
    service = MediatorService(ServiceConfig(**service_cfg, **_QUICK_JOBS), tmp_path)
    # A fresh run starts a fresh log: the tick-0 checkpoint put the initial
    # cap change (E1) in it, and nothing else.
    assert log_items(tmp_path, "event") == [
        {"time_s": 0.0, "new_cap_w": 100.0, "type": "CapChangeEvent"}
    ]
    assert len(log.read_bytes().splitlines()) == 1
    service.run_for_ticks(100)  # checkpoints at ticks 0, 50 and 100
    service.close()
    full = service.mediator.state_dict()
    assert log_records(tmp_path) == full["timeline"]
    assert log_items(tmp_path, "event") == full["accountant"]["log"]
    assert log_items(tmp_path, "finished") == full["finished"] != []
    doc = document(tmp_path, 100)
    assert doc["version"] == 5
    assert doc["history_lines"] == len(log.read_bytes().splitlines())
    assert "timeline" not in doc["state"] and "finished" not in doc["state"]
    assert "sessions" not in doc["service"]
    # The document keeps each session's cursors; every delivery is logged
    # once, with its client, and the windows hold them all at this load.
    deliveries = log_items(tmp_path, "delivery")
    for session in service.sessions.state_dict()["sessions"]:
        stored = next(s for s in doc["sessions"]["sessions"] if s["client"] == session["client"])
        assert stored == {k: v for k, v in session.items() if k != "window"}
        assert [
            {k: v for k, v in d.items() if k != "client"}
            for d in deliveries
            if d["client"] == session["client"]
        ] == session["window"]


def test_log_records_past_the_durable_count_are_dropped(service_cfg, tmp_path, baseline):
    chaos = MediatorService(
        ServiceConfig(**service_cfg),
        tmp_path,
        tick_hook=_killer(120, before=lambda: append_strays(tmp_path)),
    )
    chaos.run_for_ticks(160)
    chaos.close()
    _assert_same_run(chaos, baseline)
    assert log_records(tmp_path) == chaos.mediator.state_dict()["timeline"][:150]
    assert log_items(tmp_path, "event") == chaos.mediator.state_dict()["accountant"]["log"]


@pytest.mark.parametrize("case", tamper_ids(("tick", "event", "finished", "delivery")))
def test_a_log_that_disagrees_fails_in_one_line(service_cfg, tmp_path, case):
    # The kill at 120 recovers from the checkpoint at 100.
    expected = []
    service = MediatorService(
        ServiceConfig(**service_cfg, **_QUICK_JOBS),
        tmp_path,
        tick_hook=_killer(120, before=lambda: expected.append(tamper(case, tmp_path, 100))),
    )
    with pytest.raises(CheckpointError) as excinfo:
        service.run_for_ticks(160)
    service.close()
    text = str(excinfo.value)
    assert expected[0] in text
    assert "\n" not in text


def _first_session(doc):
    return doc["sessions"]["sessions"][0]


#: (part, how) -> (damage to the tick-100 document, the part's JSON path).
INNER_DAMAGE = {
    ("population", "missing"): (
        lambda doc: doc["service"]["population"].pop("index"), "checkpoint.service.population"
    ),
    ("population", "wrong-type"): (
        lambda doc: doc["service"]["population"].update(index="damaged"),
        "checkpoint.service.population",
    ),
    ("ingest", "missing"): (
        lambda doc: doc["service"]["ingest"].pop("overloaded"), "checkpoint.service.ingest"
    ),
    ("ingest", "wrong-type"): (
        lambda doc: doc["service"]["ingest"].update(safety=5), "checkpoint.service.ingest"
    ),
    ("pending", "missing"): (
        lambda doc: doc["service"].update(pending=[{"kind": "set-cap"}]),
        "checkpoint.service.pending",
    ),
    ("pending", "wrong-type"): (
        lambda doc: doc["service"].update(pending=[5]), "checkpoint.service.pending"
    ),
    ("outstanding", "wrong-type"): (
        lambda doc: doc["service"].update(outstanding={"app": "damaged"}),
        "checkpoint.service.outstanding",
    ),
    ("client_seqs", "wrong-type"): (
        lambda doc: doc["service"].update(client_seqs={"damaged": 1}),
        "checkpoint.service.client_seqs",
    ),
    ("sessions", "missing"): (
        lambda doc: _first_session(doc).pop("delivered_through"), "checkpoint.sessions"
    ),
    ("sessions", "wrong-type"): (
        lambda doc: _first_session(doc).update(delivered_through="damaged"),
        "checkpoint.sessions",
    ),
}


@pytest.mark.parametrize("part,how", sorted(INNER_DAMAGE), ids=lambda v: str(v))
def test_a_damaged_inner_key_fails_in_one_line(service_cfg, tmp_path, part, how):
    damage, path = INNER_DAMAGE[(part, how)]

    def tamper_document():
        target = tmp_path / "checkpoints" / checkpoint_filename(100)
        doc = json.loads(target.read_text())
        damage(doc)
        target.write_text(json.dumps(doc))

    # The kill at 120 recovers from the checkpoint at 100.
    service = MediatorService(
        ServiceConfig(**service_cfg), tmp_path, tick_hook=_killer(120, before=tamper_document)
    )
    with pytest.raises(CheckpointError) as excinfo:
        service.run_for_ticks(160)
    service.close()
    text = str(excinfo.value)
    assert text.startswith(f"{path}: ")
    assert "\n" not in text


def test_block_policy_defers_bursts_without_loss(service_cfg, tmp_path):
    config = ServiceConfig(
        **{**service_cfg, "backpressure": "block", "ingest_capacity": 3, "drain_per_tick": 1,
           "overload_drain_per_tick": 1,
           "bursts": (BurstWindow(2.0, 5.0, 60.0),)},
    )
    service = MediatorService(config, tmp_path)
    service.run_for_ticks(300)
    service.close()
    counters = dict(service.metrics.counters())
    assert counters.get("service.ingest.deferred", 0) > 0
    assert counters.get("service.ingest.shed", 0) == 0
    assert counters.get("service.ingest.rejected", 0) == 0
    # Everything offered was eventually accepted or is still carried over.
    assert counters["service.ingest.accepted"] > 0


def test_run_for_ticks_validates(service_cfg, tmp_path):
    service = MediatorService(ServiceConfig(**service_cfg), tmp_path)
    with pytest.raises(ConfigurationError):
        service.run_for_ticks(0)
    service.close()


@pytest.mark.parametrize("how", sorted(OWNER_DAMAGE))
@pytest.mark.parametrize(
    "key",
    [
        "population", "ingest", "pending", "outstanding", "client_seqs",
        "cap_cursor", "metrics",
    ],
)
def test_a_damaged_service_state_fails_in_one_line(service_cfg, tmp_path, key, how):
    # The kill at 120 recovers from the checkpoint at 100.
    expected = []
    service = MediatorService(
        ServiceConfig(**service_cfg),
        tmp_path,
        tick_hook=_killer(
            120,
            before=lambda: expected.append(
                damage_owner_state(tmp_path, 100, "service", key, how)
            ),
        ),
    )
    with pytest.raises(CheckpointError) as excinfo:
        service.run_for_ticks(160)
    service.close()
    text = str(excinfo.value)
    assert expected[0] in text
    assert "\n" not in text

