"""The mediator's RAPL guard: bad estimates must never break the cap.

These tests inject deliberately corrupted estimates (power under-reported
by a large factor) and verify the guard trims every coordination mode's
actuation back under the relevant budgets.
"""

import numpy as np
import pytest

from repro.core.coordinator import CoordinationMode
from repro.core.mediator import PowerMediator
from repro.core.policies import make_policy
from repro.core.simulation import default_battery
from repro.core.utility import CandidateSet
from repro.server.server import SimulatedServer
from repro.workloads.catalog import CATALOG


class LyingMediator(PowerMediator):
    """A mediator whose learning pipeline under-reports power by 40%.

    Sees every config as cheaper than it is - the worst case for cap
    adherence, since the allocator will overcommit the budget.
    """

    def _refresh_views(self, app: str) -> None:  # noqa: D102
        super()._refresh_views(app)
        oracle = self._oracle[app]
        self._estimates[app] = CandidateSet(
            app=app,
            knobs=oracle.knobs,
            power_w=oracle.power_w * 0.6,
            perf=oracle.perf.copy(),
            perf_nocap=oracle.perf_nocap,
        )


def lying_mediator(config, policy_name, cap, battery=None):
    server = SimulatedServer(config)
    return server, LyingMediator(
        server, make_policy(policy_name), cap, battery=battery
    )


class TestGuardUnderLyingEstimates:
    def test_space_mode_trimmed(self, config):
        server, mediator = lying_mediator(config, "app+res-aware", 100.0)
        for name in ("pagerank", "kmeans"):
            mediator.add_application(CATALOG[name].with_total_work(float("inf")))
        mediator.run_for(5.0)
        assert mediator.coordinator.plan.mode is CoordinationMode.SPACE
        for record in mediator.timeline:
            assert record.wall_w <= 100.0 + 1e-6

    def test_time_mode_trimmed(self, config):
        server, mediator = lying_mediator(config, "app+res-aware", 80.0)
        for name in ("pagerank", "kmeans"):
            mediator.add_application(CATALOG[name].with_total_work(float("inf")))
        mediator.run_for(8.0)
        assert mediator.coordinator.plan.mode is CoordinationMode.TIME
        for record in mediator.timeline:
            assert record.wall_w <= 80.0 + 1e-6

    def test_esd_mode_trimmed(self, config):
        server, mediator = lying_mediator(
            config, "app+res+esd-aware", 80.0, battery=default_battery()
        )
        for name in ("pagerank", "kmeans"):
            mediator.add_application(CATALOG[name].with_total_work(float("inf")))
        mediator.run_for(25.0)
        assert mediator.coordinator.plan.mode is CoordinationMode.ESD
        for record in mediator.timeline:
            assert record.wall_w <= 80.0 + 1e-6

    def test_trimmed_plan_still_makes_progress(self, config):
        """The guard degrades gracefully - it must not starve the apps."""
        server, mediator = lying_mediator(config, "app+res-aware", 100.0)
        for name in ("pagerank", "kmeans"):
            mediator.add_application(CATALOG[name].with_total_work(float("inf")))
        mediator.run_for(6.0)
        assert mediator.server_objective(since_s=2.0) > 0.8

    def test_guard_uses_true_power_for_duty_cycle(self, config):
        """In ESD mode the Eq. 5 schedule must balance against measured
        draws, or the battery would drain over cycles."""
        server, mediator = lying_mediator(
            config, "app+res+esd-aware", 80.0, battery=default_battery()
        )
        for name in ("pagerank", "kmeans"):
            mediator.add_application(CATALOG[name].with_total_work(float("inf")))
        mediator.run_for(60.0)
        socs = [
            r.battery_soc for r in mediator.timeline if r.time_s > 20.0
        ]
        # Sustainable cycle: SoC oscillates around a level instead of
        # draining monotonically.
        first_half = np.mean(socs[: len(socs) // 2])
        second_half = np.mean(socs[len(socs) // 2 :])
        assert second_half >= first_half * 0.5
        # And work happens.
        assert mediator.server_objective(since_s=20.0) > 0.2
