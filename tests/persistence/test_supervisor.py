"""Supervised warm restart: determinism, hang detection, recovery costs."""

from __future__ import annotations

import time

import pytest

from repro.analysis.metrics import summarize_recovery
from repro.chaos import mix_recipe, run_script
from repro.core.mediator import PowerMediator
from repro.errors import CheckpointError
from repro.learning.sampling import Sampler
from repro.persistence import (
    AdmitApp,
    Advance,
    MediatorKilled,
    SetCap,
    Supervisor,
    read_journal,
)
from repro.persistence.supervisor import MAX_RESTARTS
from repro.server.config import DEFAULT_SERVER_CONFIG
from tests.persistence.history_log import (
    OWNER_DAMAGE,
    append_strays,
    damage_owner_state,
    documents,
    log_items,
    log_records,
    tamper,
    tamper_ids,
)


def _recipe_and_script(stream, kmeans, *, policy="app+res-aware"):
    return mix_recipe(
        [stream, kmeans],
        policy,
        100.0,
        duration_s=4.0,
        warmup_s=2.0,
        use_oracle_estimates=False,
        seed=0,
        faults=None,
    )


def _kill_once_at(ticks):
    fired = set()

    def hook(mediator: PowerMediator, tick: int) -> None:
        if tick in ticks and tick not in fired:
            fired.add(tick)
            raise MediatorKilled(f"test kill at tick {tick}")

    return hook


def _kill_in_order(pending, before=None):
    """Kill once at each of ``pending`` in turn (consuming it), calling
    ``before()`` first when given (to damage what recovery will read)."""

    def hook(mediator: PowerMediator, tick: int) -> None:
        if pending and tick == pending[0]:
            pending.pop(0)
            if before is not None:
                before()
            raise MediatorKilled(f"test kill at tick {tick}")

    return hook


# The acceptance criterion: determinism asserted at >= 3 distinct kill
# points, covering just-after-checkpoint, mid-cadence, and late-run.
@pytest.mark.parametrize("kill_tick", [3, 27, 51])
def test_warm_restart_is_bit_identical(tmp_path, stream, kmeans, kill_tick):
    recipe, script = _recipe_and_script(stream, kmeans)
    baseline = run_script(recipe, script)
    supervisor = Supervisor(
        recipe,
        script,
        tmp_path,
        checkpoint_every_ticks=20,
        tick_hook=_kill_once_at({kill_tick}),
    )
    mediator = supervisor.run()
    assert supervisor.stats.restarts == 1
    assert mediator.timeline == baseline.timeline  # bit-identical, tick for tick
    for name in mediator.managed_apps():
        assert mediator.normalized_throughput(name, since_s=2.0) == (
            baseline.normalized_throughput(name, since_s=2.0)
        )


def test_a_second_run_in_the_same_workdir_recovers(tmp_path, stream, kmeans):
    # The first run leaves segments, documents and a torn document write
    # behind; the second must journal afresh and recover only its own.
    recipe, script = _recipe_and_script(stream, kmeans)
    baseline = run_script(recipe, script)
    Supervisor(recipe, script, tmp_path, checkpoint_every_ticks=20).run()
    (tmp_path / "checkpoints" / "ckpt-00009999.json.tmp").write_text("{")
    supervisor = Supervisor(
        recipe,
        script,
        tmp_path,
        checkpoint_every_ticks=20,
        tick_hook=_kill_once_at({30}),
    )
    mediator = supervisor.run()
    assert supervisor.stats.restarts == 1
    assert mediator.timeline == baseline.timeline
    assert not list((tmp_path / "checkpoints").glob("*.tmp"))


def test_repeated_kills_make_progress(tmp_path, stream, kmeans):
    recipe, script = _recipe_and_script(stream, kmeans)
    baseline = run_script(recipe, script)
    supervisor = Supervisor(
        recipe,
        script,
        tmp_path,
        checkpoint_every_ticks=15,
        tick_hook=_kill_once_at({5, 6, 7, 30, 31, 55}),
    )
    mediator = supervisor.run()
    assert supervisor.stats.restarts == 6
    assert mediator.timeline == baseline.timeline


def test_kill_during_later_command(tmp_path, stream, kmeans):
    recipe, script = _recipe_and_script(stream, kmeans)
    # Split the advance and drop the cap mid-run; kill right after the E1.
    script = script[:-1] + [Advance(3.0), SetCap(80.0), Advance(3.0)]
    baseline = run_script(recipe, script)
    supervisor = Supervisor(
        recipe,
        script,
        tmp_path,
        checkpoint_every_ticks=25,
        tick_hook=_kill_once_at({31, 44}),
    )
    mediator = supervisor.run()
    assert mediator.p_cap_w == 80.0
    assert mediator.timeline == baseline.timeline


def test_torn_journal_still_recovers(tmp_path, stream, kmeans):
    recipe, script = _recipe_and_script(stream, kmeans)
    baseline = run_script(recipe, script)
    supervisor = Supervisor(
        recipe,
        script,
        tmp_path,
        checkpoint_every_ticks=20,
        tick_hook=_kill_once_at({13, 37}),
        tear_journal_bytes_on_crash=300,
    )
    mediator = supervisor.run()
    assert mediator.timeline == baseline.timeline
    # The surviving journal must be readable end to end (no interior damage).
    read_journal(tmp_path / "journal")


def test_hang_detection(tmp_path, stream, kmeans, monkeypatch):
    recipe, script = _recipe_and_script(stream, kmeans)
    baseline = run_script(recipe, script)
    original_step = PowerMediator.step
    hung = []

    def slow_step(self):
        if self.tick_count == 20 and not hung:
            hung.append(True)
            time.sleep(0.05)
        original_step(self)

    monkeypatch.setattr(PowerMediator, "step", slow_step)
    supervisor = Supervisor(
        recipe,
        script,
        tmp_path,
        checkpoint_every_ticks=20,
        tick_deadline_s=0.04,
    )
    mediator = supervisor.run()
    assert supervisor.stats.hangs_detected == 1
    assert supervisor.stats.restarts == 1
    assert mediator.timeline == baseline.timeline


def test_max_restarts_guards_crash_loops(tmp_path, stream, kmeans):
    recipe, script = _recipe_and_script(stream, kmeans)

    def always_dies(mediator, tick):
        if tick >= 2:
            raise MediatorKilled("deterministic bug")

    supervisor = Supervisor(recipe, script, tmp_path, tick_hook=always_dies)
    with pytest.raises(CheckpointError, match=f"gave up after {MAX_RESTARTS} restarts"):
        supervisor.run()


def test_safe_hold_applies_guard_band(tmp_path, stream, kmeans):
    recipe, script = _recipe_and_script(stream, kmeans)
    baseline = run_script(recipe, script)
    observed = []

    def spy(mediator: PowerMediator, tick: int) -> None:
        observed.append((tick, mediator.safe_hold_remaining))
        if tick == 30 and not any(h for _, h in observed):
            raise MediatorKilled("kill for safe-hold test")

    supervisor = Supervisor(
        recipe, script, tmp_path, checkpoint_every_ticks=20, tick_hook=spy,
        safe_hold_ticks=5,
    )
    mediator = supervisor.run()
    assert supervisor.stats.restarts == 1
    # The five post-restart ticks ran in the guard-banded posture.
    held = [h for _, h in observed if h > 0]
    assert held and max(held) == 5
    # Run completes to the same length even though the posture differed.
    assert mediator.tick_count == baseline.tick_count


def test_recovery_accounting(tmp_path, stream, kmeans):
    recipe, script = _recipe_and_script(stream, kmeans)
    supervisor = Supervisor(
        recipe,
        script,
        tmp_path,
        checkpoint_every_ticks=20,
        tick_hook=_kill_once_at({35}),
    )
    supervisor.run()
    stats = supervisor.stats
    assert stats.restarts == 1
    assert stats.hangs_detected == 0
    # Killed before tick 36, last checkpoint at 20: ticks 21-35 replayed.
    assert stats.downtime_ticks == 15
    assert stats.journal_records_replayed >= stats.downtime_ticks
    assert stats.checkpoints_written >= 4  # t0, 20, post-recovery, 40, final
    assert stats.cold_relearns_avoided == 2  # both managed apps kept their state
    # A recipe's mediator calibrates with its default sampler: 10% of the knobs.
    per_app = Sampler.budget_from_fraction(DEFAULT_SERVER_CONFIG, 0.10)
    assert stats.samples_restored == 2 * per_app

    summary = summarize_recovery(stats, dt_s=0.1)
    assert summary.downtime_s == pytest.approx(1.5)
    assert summary.relearn_cost_avoided_s == pytest.approx(2 * 0.8)


def test_unsupervised_stats_stay_zero(tmp_path, stream, kmeans):
    recipe, script = _recipe_and_script(stream, kmeans)
    supervisor = Supervisor(recipe, script, tmp_path, checkpoint_every_ticks=30)
    mediator = supervisor.run()
    assert supervisor.stats.restarts == 0
    assert supervisor.stats.downtime_ticks == 0
    assert mediator.timeline == run_script(recipe, script).timeline


def test_kill_inside_the_re_executed_span_is_recovered_from(tmp_path, stream, kmeans):
    # The kill at 25 restores the checkpoint at 20 and re-executes 20..24,
    # through the tick hook: the kill at 22 lands inside that recovery.
    recipe, script = _recipe_and_script(stream, kmeans)
    baseline = run_script(recipe, script)
    pending = [25, 22]
    supervisor = Supervisor(
        recipe, script, tmp_path, checkpoint_every_ticks=20,
        tick_hook=_kill_in_order(pending),
    )
    mediator = supervisor.run()
    assert pending == []  # both kills fired
    assert supervisor.stats.restarts == 2
    assert mediator.timeline == baseline.timeline


# Twins of the service's history-log tests (tests/service/test_loop.py):
# the supervisor writes the same checkpoint format through the same store.


def _script_with_a_departure(stream, kmeans):
    """The mix script, but kmeans finishes near tick 23: the log then holds
    every line kind the supervisor writes before the checkpoint at 40."""
    recipe, script = _recipe_and_script(stream, kmeans)
    script[1] = AdmitApp(kmeans.with_total_work(4.0))
    return recipe, script


def test_checkpoints_append_the_timeline_to_the_log(tmp_path, stream, kmeans):
    recipe, script = _script_with_a_departure(stream, kmeans)
    mediator = Supervisor(recipe, script, tmp_path, checkpoint_every_ticks=20).run()
    # The final checkpoint covers every history, each line written once.
    full = mediator.state_dict()
    assert log_records(tmp_path) == full["timeline"]
    assert log_items(tmp_path, "event") == full["accountant"]["log"]
    assert log_items(tmp_path, "finished") == full["finished"]
    assert [item["app"] for item in full["finished"]] == ["kmeans"]
    assert log_items(tmp_path, "delivery") == []
    docs = documents(tmp_path)
    assert [doc["tick"] for doc in docs] == [0, 20, 40, 60]
    for doc in docs:
        assert doc["version"] == 5
        assert doc["sessions"] is None
        assert "timeline" not in doc["state"]
        assert "log" not in doc["state"]["accountant"]
        assert "finished" not in doc["state"]
    assert docs[-1]["history_lines"] == sum(
        len(items) for items in (full["timeline"], full["accountant"]["log"], full["finished"])
    )


def test_log_records_past_the_durable_count_are_dropped(tmp_path, stream, kmeans):
    recipe, script = _recipe_and_script(stream, kmeans)
    baseline = run_script(recipe, script)
    supervisor = Supervisor(
        recipe, script, tmp_path, checkpoint_every_ticks=20,
        tick_hook=_kill_in_order([50], before=lambda: append_strays(tmp_path)),
    )
    mediator = supervisor.run()
    assert mediator.timeline == baseline.timeline
    assert log_records(tmp_path) == mediator.state_dict()["timeline"]
    assert log_items(tmp_path, "event") == mediator.state_dict()["accountant"]["log"]
    # The post-recovery checkpoint keeps the histories out of its document too.
    docs = documents(tmp_path)
    assert [doc["tick"] for doc in docs] == [0, 20, 40, 50, 60]
    assert not any("timeline" in doc["state"] for doc in docs)


@pytest.mark.parametrize("case", tamper_ids(("tick", "event", "finished")))
def test_a_log_that_disagrees_fails_in_one_line(tmp_path, stream, kmeans, case):
    # The kill at 50 recovers from the checkpoint at 40.
    recipe, script = _script_with_a_departure(stream, kmeans)
    expected = []
    supervisor = Supervisor(
        recipe, script, tmp_path, checkpoint_every_ticks=20,
        tick_hook=_kill_in_order(
            [50], before=lambda: expected.append(tamper(case, tmp_path, 40))
        ),
    )
    with pytest.raises(CheckpointError) as excinfo:
        supervisor.run()
    text = str(excinfo.value)
    assert expected[0] in text
    assert "\n" not in text


@pytest.mark.parametrize("how", sorted(OWNER_DAMAGE))
@pytest.mark.parametrize("key", ["command", "end_s"])
def test_a_damaged_position_fails_in_one_line(tmp_path, stream, kmeans, key, how):
    # The kill at 30 recovers from the checkpoint at 20, mid-Advance.
    recipe, script = _recipe_and_script(stream, kmeans)
    expected = []
    supervisor = Supervisor(
        recipe, script, tmp_path, checkpoint_every_ticks=20,
        tick_hook=_kill_in_order(
            [30],
            before=lambda: expected.append(
                damage_owner_state(tmp_path, 20, "supervisor", key, how)
            ),
        ),
    )
    with pytest.raises(CheckpointError) as excinfo:
        supervisor.run()
    text = str(excinfo.value)
    assert expected[0] in text
    assert "\n" not in text

