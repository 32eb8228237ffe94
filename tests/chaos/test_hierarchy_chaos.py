"""Hierarchy-chaos soaks: failure-domain containment under composed faults.

The quick tier always runs a few composed tree schedules, the depth-1 tree
(the flat cluster's partition soak) included; the full acceptance matrices
(12 seeds against a 3-level tree with domain outages, and 20 seeds against
10 servers under one controller; loss up to 30%, root partitions, leaf
kills and stale-checkpoint controller restarts in both) are opt-in via
``REPRO_SOAK=1`` and run in CI's hierarchy-soak job.
"""

import json
import os

import pytest

from repro.chaos import (
    kill_outages,
    partition_schedule,
    run_hierarchy_chaos,
    run_hierarchy_soak,
    subtree_outage_schedule,
)
from repro.cluster.cluster import validate_outages
from repro.errors import ChaosError, ConfigurationError
from repro.hierarchy import validate_subtree_outages
from repro.observability.trace import TraceBus

SOAK = os.environ.get("REPRO_SOAK") == "1"


class TestSchedules:
    def test_partition_schedule_respects_bounds(self):
        for seed in range(10):
            windows = partition_schedule(
                100, 10, windows=2, max_fraction=0.25, seed=seed
            )
            for w in windows:
                assert w.end_step - w.start_step <= 25
                assert 1 <= len(w.nodes) <= 5  # never a fleet majority
                assert w.end_step <= 100 + 25

    def test_partition_schedule_deterministic(self):
        a = partition_schedule(100, 10, windows=3, max_fraction=0.2, seed=7)
        assert a == partition_schedule(100, 10, windows=3, max_fraction=0.2, seed=7)

    def test_kill_outages_never_overlap_per_node(self):
        for seed in range(10):
            outages = kill_outages(120, 4, kills=6, max_down_steps=30, seed=seed)
            # validate_outages raising would mean same-node overlap.
            validate_outages(outages, n_steps=120, n_servers=4)
            assert all(o.end_step <= 120 for o in outages)

    def test_bad_args(self):
        with pytest.raises(ConfigurationError):
            partition_schedule(100, 10, windows=1, max_fraction=1.5, seed=0)


class TestOutageSchedule:
    def test_deterministic(self):
        interior = [(0,), (1,), (2,)]
        a = subtree_outage_schedule(
            100, interior, outages=3, max_down_steps=20, seed=5
        )
        assert a == subtree_outage_schedule(
            100, interior, outages=3, max_down_steps=20, seed=5
        )

    def test_windows_stay_inside_trace_and_never_nest(self):
        from repro.cluster.controlplane import ControlPlaneConfig
        from repro.hierarchy import TreeSpec, TreeTopology

        topo = TreeTopology(
            spec=TreeSpec(fanouts=(2, 3, 2), budget_w=6000.0),
            config=ControlPlaneConfig(),
        )
        interior = [p for p in topo.interior_paths() if p]
        for seed in range(10):
            outages = subtree_outage_schedule(
                100, interior, outages=4, max_down_steps=25, seed=seed
            )
            # validate raising would mean a nested overlap slipped through.
            validate_subtree_outages(outages, topo, n_steps=100)
            assert all(o.end_step <= 100 for o in outages)

    def test_empty_inputs_yield_no_outages(self):
        assert subtree_outage_schedule(100, [], outages=2, max_down_steps=10, seed=0) == ()
        assert subtree_outage_schedule(100, [(0,)], outages=0, max_down_steps=10, seed=0) == ()


class TestQuickChaos:
    def test_composed_run_holds_every_promise(self):
        result = run_hierarchy_chaos(seed=7, fanouts=(3, 4), n_steps=100)
        assert result.headroom_w >= 0.0
        assert result.domain_outages > 0
        assert result.restarts >= 1
        assert result.min_sibling_ratio >= 0.75
        # The schedule actually hurt: subtrees lost and re-acquired leases.
        assert result.fallbacks > 0 and result.heals > 0

    def test_depth_one_tree_cuts_and_kills_servers(self):
        # The flat cluster's soak: 10 servers under one controller. The
        # controller must lose sight of a cut server and of a killed one
        # while they are out, and the root crash must restore stale.
        seed, n_steps = 1, 80
        bus = TraceBus()
        result = run_hierarchy_chaos(
            seed=seed, fanouts=(10,), budget_w=800.0, n_steps=n_steps,
            trace_bus=bus,
        )
        assert result.n_leaves == 10
        assert result.headroom_w >= 0.0
        assert result.restarts == 1
        assert result.domain_outages == 0  # no subtree below the root
        suspected = [
            (e.payload["node"], e.payload["step"])
            for e in bus.events
            if e.kind == "cp-suspect"
        ]
        # The run draws its cuts and kills from these seeds.
        cuts = partition_schedule(
            n_steps, 10, windows=2, max_fraction=0.25, seed=seed + 101
        )
        kills = kill_outages(
            n_steps, 10, kills=2, max_down_steps=n_steps // 8, seed=seed + 202
        )
        assert any(
            node in w.nodes and w.start_step <= step < w.end_step
            for w in cuts
            for node, step in suspected
        )
        assert any(
            node == o.server and o.start_step <= step < o.end_step
            for o in kills
            for node, step in suspected
        )

    def test_depth_three_tree_survives(self):
        result = run_hierarchy_chaos(
            seed=3, fanouts=(2, 3, 2), budget_w=6000.0, n_steps=100
        )
        assert result.headroom_w >= 0.0
        assert result.n_leaves == 12

    def test_small_severity_sweep(self):
        soak = run_hierarchy_soak(seeds=[0, 1, 2], fanouts=(2, 3), n_steps=80)
        assert len(soak.runs) == 3
        assert soak.min_headroom_w >= 0.0
        assert soak.runs[0].loss < soak.runs[-1].loss == pytest.approx(0.3)

    def test_bad_args(self):
        with pytest.raises(ConfigurationError):
            run_hierarchy_chaos(seed=0, loss=1.0)
        with pytest.raises(ConfigurationError):
            run_hierarchy_soak(seeds=[])

    def test_zombie_detection_raises_chaoserror(self, monkeypatch):
        from repro.hierarchy import BudgetTreeSimulator

        monkeypatch.setattr(
            BudgetTreeSimulator, "zombie_free", lambda self, step: False
        )
        with pytest.raises(ChaosError, match="zombie|lease"):
            run_hierarchy_chaos(seed=0, fanouts=(2, 2), n_steps=60)


@pytest.mark.skipif(not SOAK, reason="set REPRO_SOAK=1 to run the full soak")
class TestAcceptanceSoak:
    def test_twelve_seeds_full_severity(self):
        # The acceptance matrix: 12 seeded schedules against a 3-level,
        # 24-server tree, loss up to 30%, domain outages at PDU and rack
        # levels composed with root partitions, leaf kills, and
        # stale-checkpoint controller restarts.
        soak = run_hierarchy_soak(
            seeds=list(range(12)),
            fanouts=(2, 3, 4),
            budget_w=12000.0,
            n_steps=120,
            max_loss=0.3,
        )
        assert len(soak.runs) == 12
        assert soak.min_headroom_w >= 0.0
        assert soak.min_sibling_ratio >= 0.75
        assert soak.total_domain_outages > 0
        assert soak.total_restarts > 0
        out = os.environ.get("REPRO_SOAK_REPORT")
        if out:
            with open(out, "w", encoding="utf-8") as handle:
                json.dump(soak.report(), handle, indent=2, sort_keys=True)
                handle.write("\n")

    def test_twenty_seeds_depth_one(self):
        # The flat cluster's acceptance matrix: 20 seeded schedules against
        # 10 servers under one controller, loss up to 30%, partitions up to
        # 25% of the trace, server kills and a stale-checkpoint restart of
        # the root controller.
        soak = run_hierarchy_soak(
            seeds=list(range(20)),
            fanouts=(10,),
            budget_w=800.0,
            n_steps=120,
            max_loss=0.3,
        )
        assert len(soak.runs) == 20
        assert soak.min_headroom_w >= 0.0
        assert soak.total_domain_outages == 0
        assert soak.total_restarts > 0
