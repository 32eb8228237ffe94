"""Integration: deeper consolidation - three or four isolated applications.

The paper evaluates pairs (one app per socket); the framework generalizes
to narrower core groups (e.g. four 3-core applications, two per socket,
still with disjoint cores). These tests exercise that extension: admission,
width-restricted knob spaces, allocation, and cap adherence.
"""

import pytest

from repro.errors import SchedulingError
from repro.core.mediator import PowerMediator
from repro.core.policies import make_policy
from repro.server.server import SimulatedServer
from repro.workloads.catalog import CATALOG

QUAD = ("kmeans", "stream", "sssp", "x264")


def quad_mediator(config, cap, *, policy="app+res-aware", oracle=True):
    server = SimulatedServer(config)
    mediator = PowerMediator(
        server, make_policy(policy), cap, use_oracle_estimates=oracle
    )
    for name in QUAD:
        mediator.add_application(
            CATALOG[name].with_total_work(float("inf")),
            group_width=3,
        )
    return mediator


class TestAdmission:
    def test_four_three_core_apps_fit(self, config):
        mediator = quad_mediator(config, 130.0)
        assert mediator.managed_apps() == sorted(QUAD)
        topology = mediator.server.topology
        assert not topology.free_cores_on_socket(0) and not topology.free_cores_on_socket(1)

    def test_fifth_app_rejected(self, config):
        mediator = quad_mediator(config, 130.0)
        with pytest.raises(SchedulingError):
            mediator.add_application(CATALOG["bfs"], group_width=3)

    def test_mixed_widths(self, config):
        server = SimulatedServer(config)
        mediator = PowerMediator(
            server, make_policy("app+res-aware"), 130.0, use_oracle_estimates=True
        )
        mediator.add_application(
            CATALOG["kmeans"].with_total_work(float("inf")),
            group_width=6,
        )
        for name in ("stream", "sssp"):
            mediator.add_application(
                CATALOG[name].with_total_work(float("inf")),
                group_width=3,
            )
        mediator.run_for(3.0)
        assert len(mediator.managed_apps()) == 3


class TestWidthRestriction:
    def test_knobs_never_exceed_group_width(self, config):
        mediator = quad_mediator(config, 130.0)
        mediator.run_for(5.0)
        for record in mediator.timeline:
            for name, knob in record.app_knobs.items():
                assert knob.cores <= 3

    def test_candidate_sets_are_width_limited(self, config):
        mediator = quad_mediator(config, 130.0)
        for name in QUAD:
            cset = mediator._oracle[name]  # noqa: SLF001 - asserting internals
            assert all(k.cores <= 3 for k in cset.knobs)
            # perf_nocap rebased to the 3-core peak.
            assert cset.relative_perf().max() == pytest.approx(1.0)

    def test_learned_estimates_also_width_limited(self, config):
        mediator = quad_mediator(config, 130.0, oracle=False)
        for name in QUAD:
            cset = mediator._estimates[name]  # noqa: SLF001
            assert all(k.cores <= 3 for k in cset.knobs)


class TestCapAdherence:
    @pytest.mark.parametrize("cap", [130.0, 110.0, 95.0])
    def test_four_apps_hold_the_cap(self, config, cap):
        mediator = quad_mediator(config, cap)
        mediator.run_for(8.0)
        for record in mediator.timeline:
            assert record.wall_w <= cap + 1e-6

    def test_everyone_progresses_at_generous_cap(self, config):
        mediator = quad_mediator(config, 130.0)
        mediator.run_for(10.0)
        for name in QUAD:
            assert mediator.normalized_throughput(name, since_s=2.0) > 0.1

    def test_util_unaware_also_works(self, config):
        mediator = quad_mediator(config, 110.0, policy="util-unaware")
        mediator.run_for(8.0)
        for record in mediator.timeline:
            assert record.wall_w <= 110.0 + 1e-6
