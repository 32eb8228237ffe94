"""Checkpoints: bit-identical restore, atomicity, one-line failure modes."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.chaos import mix_recipe, run_script
from repro.core.events import PhaseChangeEvent
from repro.errors import CheckpointError
from repro.observability.trace import TraceBus
from repro.persistence import (
    HISTORY_LOG,
    AdmitApp,
    RunRecipe,
    RunStore,
    checkpoint_filename,
    read_checkpoint,
    restore_mediator,
)
from repro.workloads.catalog import CATALOG
from repro.workloads.generator import PhasedProfile
from repro.workloads.profiles import WorkloadProfile


def _recipe_and_script(stream, kmeans, *, policy="app+res-aware", seed=0, faults=None):
    return mix_recipe(
        [stream, kmeans],
        policy,
        100.0,
        duration_s=4.0,
        warmup_s=2.0,
        use_oracle_estimates=False,
        seed=seed,
        faults=faults,
    )


def _started_mediator(stream, kmeans, ticks=15, **kwargs):
    from repro.persistence.supervisor import Advance

    recipe, script = _recipe_and_script(stream, kmeans, **kwargs)
    admits = [c for c in script if not isinstance(c, Advance)]
    mediator = run_script(recipe, admits)
    for _ in range(ticks):
        mediator.step()
    return recipe, mediator


def _write(tmp_path, mediator, recipe):
    """One checkpoint of ``mediator`` through a fresh store; its path."""
    store = RunStore(tmp_path, recipe, owner="test")
    return store.checkpoint_dir / store.checkpoint(mediator, {})


def test_restore_is_bit_identical(tmp_path, stream, kmeans):
    recipe, mediator = _started_mediator(stream, kmeans)
    path = _write(tmp_path, mediator, recipe)
    restored = restore_mediator(read_checkpoint(path))
    for _ in range(25):
        mediator.step()
        restored.step()
    assert restored.timeline == mediator.timeline
    assert restored.server.now_s == mediator.server.now_s
    for name in mediator.managed_apps():
        assert restored.normalized_throughput(name) == mediator.normalized_throughput(name)


def test_restore_is_bit_identical_with_esd(tmp_path, stream, kmeans):
    recipe, mediator = _started_mediator(
        stream, kmeans, policy="app+res+esd-aware", ticks=30
    )
    path = _write(tmp_path, mediator, recipe)
    restored = restore_mediator(read_checkpoint(path))
    for _ in range(25):
        mediator.step()
        restored.step()
    assert restored.timeline == mediator.timeline
    assert restored.battery.stored_j == mediator.battery.stored_j
    assert restored.battery.stats == mediator.battery.stats


def test_checkpoint_document_is_pure_json(tmp_path, stream, kmeans):
    recipe, mediator = _started_mediator(stream, kmeans)
    path = _write(tmp_path, mediator, recipe)
    # A full JSON round trip (as any reader would perform) must lose nothing.
    doc = json.loads(json.dumps(read_checkpoint(path)))
    rebuilt = restore_mediator(read_checkpoint(path))
    direct = restore_mediator(doc)
    rebuilt.step()
    direct.step()
    assert rebuilt.timeline[-1] == direct.timeline[-1]


def test_state_dict_can_leave_out_a_timeline_prefix(stream, kmeans):
    _, mediator = _started_mediator(stream, kmeans)
    full = mediator.state_dict()
    assert len(full["timeline"]) == 15
    for k in (0, 7, 15):
        assert mediator.state_dict(timeline_from=k) == {**full, "timeline": full["timeline"][k:]}
    for k in (-1, 16):
        with pytest.raises(ValueError, match="timeline_from"):
            mediator.state_dict(timeline_from=k)


def test_state_dict_can_leave_out_event_and_departure_prefixes(kmeans, stream):
    recipe = RunRecipe(policy="app+res-aware", p_cap_w=100.0, use_oracle_estimates=True)
    mediator = run_script(
        recipe, [AdmitApp(stream), AdmitApp(kmeans.with_total_work(2.0))]
    )
    for _ in range(40):
        mediator.step()
    full = mediator.state_dict()
    events = full["accountant"]["log"]
    # E1, two E2s, then the E3 of kmeans.
    assert [e["type"] for e in events] == [
        "CapChangeEvent", "ArrivalEvent", "ArrivalEvent", "DepartureEvent",
    ]
    assert [f["app"] for f in full["finished"]] == ["kmeans"]
    for k in range(len(events) + 1):
        cut = mediator.state_dict(events_from=k)
        assert cut["accountant"] == {**full["accountant"], "log": events[k:]}
        assert {**cut, "accountant": full["accountant"]} == full
    assert mediator.state_dict(finished_from=1) == {**full, "finished": []}
    # The accountant names its own cursor.
    for cursor, bad, named in (
        ("events_from", 5, "log_from"),
        ("events_from", -1, "log_from"),
        ("finished_from", 2, "finished_from"),
    ):
        with pytest.raises(ValueError, match=named):
            mediator.state_dict(**{cursor: bad})


def test_filenames_sort_chronologically(tmp_path, stream, kmeans):
    recipe, mediator = _started_mediator(stream, kmeans, ticks=5)
    store = RunStore(tmp_path, recipe, owner="test")
    first = store.checkpoint(mediator, {})
    for _ in range(10):
        mediator.step()
    second = store.checkpoint(mediator, {})
    assert first == checkpoint_filename(5)
    assert second == checkpoint_filename(15)
    assert sorted(p.name for p in store.checkpoint_dir.glob("ckpt-*.json")) == [first, second]
    # Each document covers its own prefix of the one shared history log.
    older = read_checkpoint(store.checkpoint_dir / first)
    assert older["state"]["timeline"] == mediator.state_dict()["timeline"][:5]


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ("not json at all", "not valid JSON"),
        (json.dumps({"version": 1}), "checkpoint.schema"),
        (json.dumps({"schema": "other", "version": 1}), "not a mediator checkpoint"),
        (
            json.dumps({"schema": "repro-checkpoint", "version": 42}),
            "version 42 is not supported",
        ),
        (
            json.dumps({"schema": "repro-checkpoint", "version": 5}),
            "checkpoint.tick",
        ),
        (
            json.dumps({"schema": "repro-checkpoint", "version": 4}),
            "checkpoint version 4 is not supported",
        ),
        (
            json.dumps({"schema": "repro-checkpoint", "version": 3}),
            "checkpoint version 3 is not supported",
        ),
        (
            json.dumps({"schema": "repro-checkpoint", "version": 1}),
            "checkpoint version 1 is not supported",
        ),
        (
            json.dumps({"schema": "repro-checkpoint", "version": 2}),
            "checkpoint version 2 is not supported",
        ),
        (
            json.dumps({"schema": "repro-service-checkpoint", "version": 2}),
            "not a mediator checkpoint",
        ),
    ],
)
def test_read_failures_are_one_line(tmp_path, payload, fragment):
    path = tmp_path / "ckpt.json"
    path.write_text(payload)
    with pytest.raises(CheckpointError) as excinfo:
        read_checkpoint(path)
    message = str(excinfo.value)
    assert fragment in message
    assert "\n" not in message  # CLI prints it verbatim on one line


def test_missing_file_is_one_line(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read checkpoint"):
        read_checkpoint(tmp_path / "absent.json")


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda r: r.update(policy="galactic"), "recipe.policy"),
        (lambda r: r.pop("policy"), "recipe.policy: required"),
        (lambda r: r.update(p_cap_w="plenty"), "recipe.p_cap_w"),
        # The keys a version-3 recipe still carried, and any other stranger.
        (lambda r: r.update(sampler=None), "recipe.sampler: unknown recipe field"),
        (lambda r: r.update(use_battery=None), "recipe.use_battery: unknown recipe field"),
        (
            lambda r: r.update(power_noise_std_w=0.3),
            "recipe.power_noise_std_w: unknown recipe field",
        ),
        (
            lambda r: r.update(perf_noise_relative_std=0.02),
            "recipe.perf_noise_relative_std: unknown recipe field",
        ),
        # The keys a version-4 recipe still carried.
        (lambda r: r.update(config={}), "recipe.config: unknown recipe field"),
        (lambda r: r.update(resilience=None), "recipe.resilience: unknown recipe field"),
        (lambda r: r.update(warp_factor=9), "recipe.warp_factor: unknown recipe field"),
        (lambda r: r.update(faults={"seed": 0, "faults": [{"kind": "gremlin"}]}), "recipe.faults"),
    ],
)
def test_recipe_validation_names_offending_field(stream, kmeans, mutate, fragment):
    recipe, _ = _recipe_and_script(stream, kmeans)
    raw = recipe.to_dict()
    mutate(raw)
    with pytest.raises(CheckpointError) as excinfo:
        RunRecipe.from_dict(raw)
    assert fragment in str(excinfo.value)
    assert "\n" not in str(excinfo.value)


def test_recipe_round_trip(stream, kmeans):
    recipe, _ = _recipe_and_script(stream, kmeans, seed=7)
    assert RunRecipe.from_dict(recipe.to_dict()) == recipe


def test_state_not_matching_recipe_is_one_line(tmp_path, stream, kmeans):
    recipe, mediator = _started_mediator(stream, kmeans)
    path = _write(tmp_path, mediator, recipe)
    doc = read_checkpoint(path)
    del doc["state"]["coordinator"]
    with pytest.raises(CheckpointError, match="checkpoint.state"):
        restore_mediator(doc)


def test_no_tmp_file_left_behind(tmp_path, stream, kmeans):
    recipe, mediator = _started_mediator(stream, kmeans)
    path = _write(tmp_path, mediator, recipe)
    assert not list(path.parent.glob("*.tmp"))


def test_document_leaves_the_timeline_to_the_log(tmp_path, stream, kmeans):
    recipe, mediator = _started_mediator(stream, kmeans)
    path = _write(tmp_path, mediator, recipe)
    doc = json.loads(path.read_text())
    full = mediator.state_dict()
    assert doc["version"] == 5 and doc["tick"] == 15
    assert "timeline" not in doc["state"]
    assert "log" not in doc["state"]["accountant"]
    assert "finished" not in doc["state"]
    assert doc["sessions"] is None
    assert doc["test"] == {}  # the owner's state rides under its own key
    # Learned estimates stay (they carry the calibration samples); each
    # oracle set is stored as what it was built from.
    assert doc["state"]["estimates"] == full["estimates"] != {}
    assert doc["state"]["oracle"] == {
        "kmeans": {"segment": None, "width": 6},
        "stream": {"segment": None, "width": 6},
    }
    lines = [json.loads(line) for line in (path.parent / HISTORY_LOG).read_text().splitlines()]
    assert doc["history_lines"] == len(lines)
    assert lines == [{"kind": "tick", "data": r} for r in full["timeline"]] + [
        {"kind": "event", "data": e} for e in full["accountant"]["log"]
    ]


@pytest.mark.parametrize(
    "line, fragment",
    [
        ('{"kind": ["tick"], "data": {}}', "line 16 has unknown kind ['tick']"),
        ('{"kind": "event"}', "line 16 has no data object"),
        (
            '{"kind": "delivery", "data": {"client": 0}}',
            "line 16 is a delivery for client 0, which has no session",
        ),
        (
            '{"kind": "delivery", "data": {"client": [0]}}',
            "line 16 is a delivery for client [0], which has no session",
        ),
    ],
)
def test_a_misplaced_log_line_fails_in_one_line(tmp_path, stream, kmeans, line, fragment):
    recipe, mediator = _started_mediator(stream, kmeans)
    path = _write(tmp_path, mediator, recipe)
    log = path.parent / HISTORY_LOG
    lines = log.read_text().splitlines(keepends=True)
    lines[15] = line + "\n"  # the first of the three event lines
    log.write_text("".join(lines))
    with pytest.raises(CheckpointError) as excinfo:
        read_checkpoint(path)
    assert fragment in str(excinfo.value)
    assert "\n" not in str(excinfo.value)


def test_an_oracle_estimate_is_not_stored(tmp_path, stream, kmeans):
    recipe, script = _recipe_and_script(stream, kmeans)
    recipe = dataclasses.replace(recipe, use_oracle_estimates=True)
    mediator = run_script(recipe, script[:2])
    path = _write(tmp_path, mediator, recipe)
    assert json.loads(path.read_text())["state"]["estimates"] == {}
    restored = restore_mediator(read_checkpoint(path))
    for name in ("kmeans", "stream"):
        assert restored._estimates[name] is restored._oracle[name]


def _phased_run(engine, use_oracle_estimates):
    """A phased kmeans (full width) beside a narrow-group stream, stepped to
    the tick its profile swaps, before the E4 that re-calibrates it."""
    kmeans = CATALOG["kmeans"].with_total_work(30.0)
    lighter = WorkloadProfile.from_dict(
        {**kmeans.to_dict(), "activity_factor": 0.5, "dvfs_sensitivity": 0.3}
    )
    recipe = RunRecipe(
        policy="app+res-aware",
        p_cap_w=110.0,
        use_oracle_estimates=use_oracle_estimates,
        seed=4,
        engine=engine,
    )
    mediator = recipe.build()
    mediator.add_application(kmeans, phased=PhasedProfile([(0.0, kmeans), (0.3, lighter)]))
    mediator.add_application(CATALOG["stream"].with_total_work(float("inf")), group_width=3)
    managed = mediator._managed["kmeans"]
    while managed.calibrated is managed.profile:
        mediator.step()
    return recipe, mediator


@pytest.mark.parametrize("use_oracle_estimates", [True, False], ids=["oracle", "learned"])
@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_a_phased_app_restores_between_its_swap_and_its_recalibration(
    tmp_path, engine, use_oracle_estimates
):
    recipe, mediator = _phased_run(engine, use_oracle_estimates)
    path = _write(tmp_path, mediator, recipe)
    doc = json.loads(path.read_text())
    # The oracle set is the old segment's; the app already runs the new one.
    assert doc["state"]["oracle"] == {
        "kmeans": {"segment": 0, "width": 6},
        "stream": {"segment": None, "width": 3},
    }
    assert doc["state"]["managed"]["kmeans"]["segment"] == 1
    assert (doc["state"]["estimates"] == {}) is use_oracle_estimates
    restored = restore_mediator(read_checkpoint(path))
    for views in ("_oracle", "_estimates"):
        original, rebuilt = getattr(mediator, views), getattr(restored, views)
        assert list(rebuilt) == list(original) == ["kmeans", "stream"]
        for name in original:
            assert rebuilt[name].to_dict() == original[name].to_dict()
    buses = TraceBus(), TraceBus()
    for run, bus in zip((mediator, restored), buses):
        run.attach_trace_bus(bus)
        for _ in range(50):
            run.step()
    assert buses[0].content_hash() == buses[1].content_hash()
    assert restored.timeline == mediator.timeline
    # The E4 re-calibration fired inside the compared stretch.
    assert any(
        isinstance(e, PhaseChangeEvent) and e.time_s > doc["sim_time_s"]
        for e in restored.accountant.event_log
    )
