"""Checkpoints: bit-identical restore, atomicity, one-line failure modes."""

from __future__ import annotations

import json

import pytest

from repro.chaos import mix_recipe
from repro.errors import CheckpointError
from repro.persistence import (
    TIMELINE_LOG,
    RunRecipe,
    RunStore,
    checkpoint_filename,
    read_checkpoint,
    restore_mediator,
)
from repro.server.config import ServerConfig


def _recipe_and_script(stream, kmeans, *, policy="app+res-aware", seed=0, faults=None):
    return mix_recipe(
        [stream, kmeans],
        policy,
        100.0,
        config=ServerConfig(),
        duration_s=4.0,
        warmup_s=2.0,
        use_oracle_estimates=False,
        dt_s=0.1,
        seed=seed,
        faults=faults,
        resilience=None,
    )


def _started_mediator(stream, kmeans, ticks=15, **kwargs):
    from repro.chaos import run_script
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
    # Each document covers its own prefix of the one shared timeline log.
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
            json.dumps({"schema": "repro-checkpoint", "version": 2}),
            "checkpoint.tick",
        ),
        (
            json.dumps({"schema": "repro-checkpoint", "version": 1}),
            "checkpoint version 1 is not supported",
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
        (lambda r: r["config"].update(warp_factor=9), "recipe.config.warp_factor"),
        (lambda r: r.update(p_cap_w="plenty"), "recipe.p_cap_w"),
        (lambda r: r.update(sampler={"type": "stratified"}), "recipe.sampler.fraction"),
        (lambda r: r.update(use_battery="yes"), "recipe.use_battery"),
        (lambda r: r.update(faults={"seed": 0, "faults": [{"kind": "gremlin"}]}), "recipe.faults"),
        (lambda r: r.update(resilience={"bogus_knob": 1}), "recipe.resilience.bogus_knob"),
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
    assert doc["version"] == 2 and doc["tick"] == 15
    assert doc["timeline_records"] == 15
    assert "timeline" not in doc["state"]
    assert doc["test"] == {}  # the owner's state rides under its own key
    lines = (path.parent / TIMELINE_LOG).read_text().splitlines()
    assert [json.loads(line) for line in lines] == mediator.state_dict()["timeline"]
