"""Property tests: snapshot -> restore -> run equals the uninterrupted run.

Hypothesis drives the cut point (and seed) through the whole space instead
of a handful of hand-picked ticks; any divergence is a codec that forgot a
piece of state, which these properties catch regardless of where it hides.
"""

from __future__ import annotations

import json
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import mix_recipe, run_script
from repro.persistence import MediatorKilled, Supervisor
from repro.persistence.supervisor import Advance
from repro.workloads.catalog import get_application

_TOTAL_TICKS = 30

_SETTINGS = dict(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _recipe_and_script(seed: int, policy: str = "app+res-aware"):
    return mix_recipe(
        [get_application("stream"), get_application("kmeans")],
        policy,
        100.0,
        duration_s=2.0,
        warmup_s=1.0,
        use_oracle_estimates=False,
        seed=seed,
        faults=None,
    )


@settings(**_SETTINGS)
@given(cut=st.integers(min_value=1, max_value=_TOTAL_TICKS - 1), seed=st.integers(0, 3))
def test_snapshot_restore_run_equals_uninterrupted(cut: int, seed: int) -> None:
    """state_dict -> JSON -> load_state_dict at ANY tick preserves the run."""
    recipe, script = _recipe_and_script(seed)
    admits = [c for c in script if not isinstance(c, Advance)]

    reference = run_script(recipe, admits)
    for _ in range(_TOTAL_TICKS):
        reference.step()

    interrupted = run_script(recipe, admits)
    for _ in range(cut):
        interrupted.step()
    snapshot = json.loads(json.dumps(interrupted.state_dict()))
    resumed = recipe.build()
    resumed.load_state_dict(snapshot)
    for _ in range(_TOTAL_TICKS - cut):
        resumed.step()

    assert resumed.timeline == reference.timeline
    assert resumed.server.now_s == reference.server.now_s


@settings(**_SETTINGS)
@given(
    kill=st.integers(min_value=1, max_value=_TOTAL_TICKS - 1),
    second=st.integers(min_value=1, max_value=_TOTAL_TICKS - 1),
)
def test_supervised_kill_anywhere_is_bit_identical(kill: int, second: int) -> None:
    """A kill at ANY tick recovers to the uninterrupted timeline - and so
    does a second kill after it, wherever it lands: later in the run, at
    the same tick again, or inside the span the first recovery re-executes
    (a second kill before that span is never reached)."""
    recipe, script = _recipe_and_script(0)
    baseline = run_script(recipe, script)

    pending = [kill, second]

    def hook(mediator, tick):
        if pending and tick == pending[0]:
            pending.pop(0)
            raise MediatorKilled(f"property kill at {tick}")

    with tempfile.TemporaryDirectory(prefix="repro-prop-") as workdir:
        supervisor = Supervisor(
            recipe, script, workdir, checkpoint_every_ticks=10, tick_hook=hook
        )
        mediator = supervisor.run()
    assert pending in ([], [second])  # the first kill always fires
    assert supervisor.stats.restarts == 2 - len(pending)
    assert mediator.timeline == baseline.timeline
