"""A checkpoint costs what changed since the previous one, not the whole run.

Bytes written per checkpoint - the document plus the lines it appends to
the history log - stay flat as a run grows, for both callers of the store.
Tier-1 compares the checkpoints at ticks 200 and 2,000; ``REPRO_SOAK=1``
those at 1,000 and 10,000.
"""

from __future__ import annotations

import os

from repro.chaos import mix_recipe
from repro.persistence import HISTORY_LOG, Supervisor, checkpoint_filename
from repro.service import MediatorService, ServiceConfig

SOAK = os.environ.get("REPRO_SOAK") == "1"
EARLY, LATE = (1000, 10000) if SOAK else (200, 2000)
EVERY = 100


class _Written:
    """Bytes each checkpoint wrote, read off the files as the run goes."""

    def __init__(self, workdir):
        self._dir = workdir / "checkpoints"
        self._log_size = 0
        self.at: dict[int, int] = {}

    def observe(self, tick: int) -> None:
        """Call right after the checkpoint at ``tick`` landed."""
        size = (self._dir / HISTORY_LOG).stat().st_size
        document = (self._dir / checkpoint_filename(tick)).stat().st_size
        self.at[tick] = document + size - self._log_size
        self._log_size = size

    def assert_flat(self) -> None:
        assert self.at[LATE] <= 1.2 * self.at[EARLY], (self.at[EARLY], self.at[LATE])


def test_service_checkpoints_cost_as_much_late_as_early(tmp_path):
    # Steady Poisson arrivals that keep the server full, so each stretch
    # between checkpoints carries about the same ticks, events, departures
    # and deliveries.
    config = ServiceConfig(
        rate_per_s=0.4,
        work_scale=0.05,
        clients=3,
        diurnal_amplitude=0.0,
        ingest_capacity=8,
        drain_per_tick=2,
        cap_levels=(90.0, 105.0),
        cap_change_every_s=8.0,
        telemetry_every_ticks=20,
        checkpoint_every_ticks=EVERY,
    )
    service = MediatorService(config, tmp_path)
    written = _Written(tmp_path)
    written.observe(0)
    while service.tick < LATE:
        service.run_for_ticks(EVERY)
        written.observe(service.tick)
    service.close()
    written.assert_flat()
    # Every history grew meanwhile, so a document that carried one would not
    # stay flat.
    state = service.mediator.state_dict()
    assert len(state["accountant"]["log"]) > LATE // 100
    assert state["finished"]
    assert service.metrics.counter("service.sessions.deliveries").value > LATE // 10


def test_supervised_mix_checkpoints_cost_as_much_late_as_early(tmp_path, stream, kmeans):
    recipe, script = mix_recipe(
        [stream, kmeans],
        "app+res-aware",
        100.0,
        duration_s=(LATE + 1) * 0.1,  # one tick past LATE, for the hook
        warmup_s=0.0,
        use_oracle_estimates=False,
        seed=0,
        faults=None,
    )
    written = _Written(tmp_path)

    def observe(mediator, tick):
        if tick % EVERY == 0:
            written.observe(tick)

    Supervisor(
        recipe, script, tmp_path, checkpoint_every_ticks=EVERY, tick_hook=observe
    ).run()
    written.assert_flat()
