"""The budget-tree runner: bit-identity, invariants, degradation, recovery."""

import hashlib
import json

import pytest

from repro.cluster.controlplane import ControlPlaneConfig
from repro.errors import ConfigurationError, NetworkError, SimulationError
from repro.hierarchy import (
    BudgetTreeSimulator,
    SubtreeOutage,
    TreeSpec,
    run_budget_tree,
)
from repro.netsim import NetConfig, PartitionWindow
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import HIERARCHY_KINDS, TraceBus, verify_trace

LOSSY = NetConfig(latency_steps=1, jitter_steps=2, loss=0.15, duplicate=0.05, seed=7)


def run_tree(fanouts=(3, 4), budget_w=1200.0, steps=60, **kwargs):
    defaults = dict(net=NetConfig(seed=1), drain_steps=15)
    defaults.update(kwargs)
    spec = TreeSpec(fanouts=fanouts, budget_w=budget_w)
    n = spec.n_leaves
    return run_budget_tree(spec, [n] * steps, **defaults)


def _tree_digest(out) -> str:
    doc = {
        "caps_w": out.caps_w,
        "leaf_epochs": out.leaf_epochs,
        "root_epoch": out.final_epochs["root"],
        "zombie_free": out.zombie_free,
        "max_total_cap_w": out.max_total_cap_w,
        "net_stats": out.net_stats,
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class TestDegenerateDepthOne:
    """A one-level tree IS the flat control plane - bit for bit.

    The digests and the trace hash were recorded from the flat
    control-plane runner before the depth-1 tree replaced it.
    """

    @pytest.mark.parametrize(
        "net, golden",
        [
            (
                NetConfig(seed=1),
                "b765492654c3175813c9fafed32b1ee2eba2c26a3a7a11553645f364f45ae9a2",
            ),
            (
                LOSSY,
                "ccd83614e66832211d4fc94b4ca51f8cefb75e7bd17e94d43b3e417cca498484",
            ),
        ],
        ids=["net0", "net1"],
    )
    def test_bit_identical_to_flat_control_plane(self, net, golden):
        loads = [4, 6, 8, 8, 8, 5, 3, 8] * 5
        tree = run_budget_tree(
            TreeSpec(fanouts=(8,), budget_w=800.0), loads, net=net, drain_steps=12
        )
        assert _tree_digest(tree) == golden

    def test_trace_hash_identical_to_flat(self):
        bus = TraceBus()
        tree = run_budget_tree(
            TreeSpec(fanouts=(6,), budget_w=600.0), [6] * 40, net=LOSSY,
            trace_bus=bus,
        )
        assert bus.content_hash() == (
            "1925ff5bb1c16533346224816267203308bfc15baf1f774704b8794536a18808"
        )
        assert _tree_digest(tree) == (
            "3ab836e440c5523451932a60d3fb5bbd52cc8d53b9ccf9ff135521dd5bb7c740"
        )

    def test_leaf_down_matches_flat_down_sets(self):
        steps = 50
        down = [
            frozenset({0}) if 15 <= t < 35 else frozenset() for t in range(steps)
        ]
        tree = run_budget_tree(
            TreeSpec(fanouts=(4,), budget_w=400.0), [4] * steps,
            net=NetConfig(seed=2), leaf_down_sets=down, drain_steps=10,
        )
        assert _tree_digest(tree) == (
            "1702442beb4ead0f2ae968e005e97ff2ff2b37df95364d6e2587c1ca831716ae"
        )


class TestInvariant:
    @pytest.mark.parametrize("fanouts", [(3, 4), (2, 3, 2)])
    def test_caps_never_exceed_budget_under_loss(self, fanouts):
        out = run_tree(fanouts=fanouts, steps=80, net=LOSSY)
        for row in out.caps_w:
            assert sum(row) <= out.budget_w + 1e-6
        assert out.max_total_cap_w <= out.budget_w + 1e-6
        assert out.zombie_free

    def test_safe_tier_is_reachable_without_any_messages(self):
        # Total loss: every node should still enforce its static safe cap.
        out = run_tree(
            steps=30, net=NetConfig(loss=0.999999, seed=3), drain_steps=0
        )
        leaf_safe = out.safe_caps_by_level_w[-1]
        assert out.caps_w[-1] == (leaf_safe,) * out.n_leaves

    def test_extras_flow_down_on_a_clean_network(self):
        out = run_tree(steps=60, net=NetConfig(seed=1))
        leaf_safe = out.safe_caps_by_level_w[-1]
        final = out.caps_w[-1]
        assert all(cap >= leaf_safe for cap in final)
        # Delegation must beat the pure safe tier by a real margin.
        assert sum(final) > out.n_leaves * leaf_safe * 1.05

    def test_deterministic_replay(self):
        assert run_tree(net=LOSSY) == run_tree(net=LOSSY)


def _warm_tree(fanouts=(2, 3), budget_w=600.0, steps=5):
    spec = TreeSpec(fanouts=fanouts, budget_w=budget_w)
    sim = BudgetTreeSimulator(spec, net=NetConfig(seed=1))
    loaded = frozenset(range(spec.n_leaves))
    for step in range(steps):
        sim.step(step, loaded)
    return sim, loaded


def _tamper(agent):
    """Make an agent enforce a lease no controller ever granted."""
    agent.epoch = 10**6
    agent.extra_w = 500.0
    agent.lease_expiry_step = 10**6


class TestInvariantFires:
    """The delegation check raises, naming the node whose children
    over-enforce - a check that checked nothing would fail these."""

    def test_tampered_leaf_names_its_parent(self):
        sim, loaded = _warm_tree()
        _tamper(sim.leaf_agents[4])
        with pytest.raises(SimulationError, match="node 1:"):
            sim.step(5, loaded)

    def test_tampered_subtree_agent_names_the_root(self):
        sim, loaded = _warm_tree()
        _tamper(sim.nodes[(0,)].agent)
        with pytest.raises(SimulationError, match="node root:"):
            sim.step(5, loaded)

    def test_tampered_leaf_of_a_flat_tree_names_the_root(self):
        sim, loaded = _warm_tree(fanouts=(4,), budget_w=400.0)
        _tamper(sim.leaf_agents[2])
        with pytest.raises(SimulationError, match="node root:"):
            sim.step(5, loaded)

    @pytest.mark.parametrize("factor, raises", [(0.5, False), (2.0, True)])
    def test_tolerance_scales_with_the_node_fanout(self, factor, raises):
        sim, _ = _warm_tree()
        node = sim.nodes[(1,)]
        assert node.enforced_budget_w(4) == 300.0
        overshoot = factor * 1e-6 * node.n_children
        row = (0.0, 0.0, 0.0, 100.0, 100.0, 100.0 + overshoot)
        if raises:
            with pytest.raises(SimulationError, match="node 1:"):
                sim._check_invariant(4, row)
        else:
            sim._check_invariant(4, row)


class TestPartitionAutonomy:
    def test_cut_subtree_keeps_mediating_on_safe_tier(self):
        # PDU 0 is cut from the root long enough for its upstream lease to
        # lapse; its own controller keeps running, so its leaves must hold
        # the subtree's safe-tier share, not collapse to zero.
        steps = 90
        out = run_tree(
            fanouts=(3, 4),
            steps=steps,
            net=NetConfig(
                partitions=(PartitionWindow(20, 70, (0,)),), seed=5
            ),
        )
        leaf_safe = out.safe_caps_by_level_w[-1]
        mid = out.caps_w[60]
        for leaf in range(4):  # leaves under PDU 0
            assert mid[leaf] >= leaf_safe - 1e-9
        # After the heal the subtree is re-granted upstream extras.
        assert sum(out.caps_w[-1][:4]) > sum(mid[:4])
        assert out.fallbacks >= 1
        assert out.heals >= 1
        assert out.zombie_free

    def test_fallback_and_heal_are_traced(self):
        bus = TraceBus()
        run_tree(
            fanouts=(3, 4),
            steps=90,
            net=NetConfig(partitions=(PartitionWindow(20, 70, (0,)),), seed=5),
            trace_bus=bus,
        )
        verify_trace(bus.events)
        kinds = {e.kind for e in bus.events}
        assert "hier-fallback" in kinds and "hier-heal" in kinds
        assert kinds & HIERARCHY_KINDS
        scopes = {
            e.payload.get("scope") for e in bus.events if e.kind == "cp-command"
        }
        assert "root" in scopes and {"0", "1", "2"} <= scopes

    def test_deep_partition_key_must_name_interior_node(self):
        with pytest.raises(NetworkError, match="partition key"):
            BudgetTreeSimulator(
                TreeSpec(fanouts=(3, 4), budget_w=1200.0),
                net=NetConfig(seed=1),
                partitions={"9": (PartitionWindow(0, 5, (0,)),)},
            )

    def test_deep_partition_cuts_one_rack_fabric(self):
        # A partition inside PDU 0's fabric (cutting child 0 = 4 leaves).
        out = run_tree(
            fanouts=(3, 4),
            steps=90,
            partitions={"0": (PartitionWindow(20, 70, (0, 1, 2, 3)),)},
        )
        assert out.max_total_cap_w <= out.budget_w + 1e-6
        assert out.zombie_free


class TestSubtreeOutages:
    def test_whole_pdu_dark_then_recovering(self):
        metrics = MetricsRegistry()
        out = run_tree(
            fanouts=(3, 4),
            steps=100,
            net=NetConfig(seed=9),
            subtree_outages=(SubtreeOutage(path=(1,), start_step=20, end_step=60),),
            metrics=metrics,
        )
        assert out.max_total_cap_w <= out.budget_w + 1e-6
        assert out.zombie_free
        leaf_safe = out.safe_caps_by_level_w[-1]
        # Siblings keep (at least) their own flow while PDU 1 is dark.
        mid = out.caps_w[50]
        assert all(cap >= leaf_safe - 1e-9 for cap in mid[:4])
        assert all(cap >= leaf_safe - 1e-9 for cap in mid[8:])
        # After recovery the dark leaves are granted extras again.
        assert sum(out.caps_w[-1][4:8]) > 4 * leaf_safe

    def test_outage_schedule_validated_against_tree(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match=r"outages\[0\]\.path"):
            run_tree(
                subtree_outages=(
                    SubtreeOutage(path=(9,), start_step=0, end_step=5),
                )
            )


class TestCrashRestart:
    def test_interior_controller_restart_from_stale_checkpoint(self):
        spec = TreeSpec(fanouts=(3, 4), budget_w=1200.0)
        metrics = MetricsRegistry()
        sim = BudgetTreeSimulator(spec, net=NetConfig(seed=4), metrics=metrics)
        loaded = frozenset(range(spec.n_leaves))
        snapshot = None
        for step in range(120):
            if step == 30:
                snapshot = sim.checkpoint((0,))
            if step == 38:
                # Crash PDU 0's controller and restore the 8-step-old state.
                sim.restore((0,), snapshot, step, checkpoint_age_steps=8)
            row = sim.step(step, loaded)
            assert sum(row) <= spec.budget_w + 1e-6
        assert sim.restarts == 1
        assert metrics.counter("hierarchy.restarts").value == 1
        assert metrics.counter("controlplane.restarts").value == 1
        assert sim.zombie_free(119)

    def test_restart_epoch_skips_past_dead_incarnation(self):
        spec = TreeSpec(fanouts=(4,), budget_w=400.0)
        sim = BudgetTreeSimulator(spec, net=NetConfig(seed=4))
        loaded = frozenset(range(4))
        for step in range(20):
            sim.step(step, loaded)
        snapshot = sim.checkpoint(())
        epoch_then = sim.nodes[()].controller.epoch
        for step in range(20, 30):
            sim.step(step, loaded)
        sim.restore((), snapshot, 30, checkpoint_age_steps=10)
        # (age + 1) * fanout bounds what the dead incarnation issued.
        assert sim.nodes[()].controller.epoch >= epoch_then + 44
        for step in range(30, 80):
            row = sim.step(step, loaded)
            assert sum(row) <= spec.budget_w + 1e-6
        assert sim.zombie_free(79)


class TestSchedules:
    def test_empty_schedule_rejected(self):
        with pytest.raises(NetworkError, match="at least one step"):
            run_budget_tree(
                TreeSpec(fanouts=(2,), budget_w=200.0), [], net=NetConfig()
            )

    def test_overloaded_counts_rejected(self):
        with pytest.raises(NetworkError, match="loaded_counts"):
            run_budget_tree(
                TreeSpec(fanouts=(2,), budget_w=200.0), [3], net=NetConfig()
            )

    def test_mismatched_down_sets_rejected(self):
        with pytest.raises(NetworkError, match="leaf_down_sets"):
            run_budget_tree(
                TreeSpec(fanouts=(2,), budget_w=200.0),
                [2, 2],
                leaf_down_sets=[frozenset()],
                net=NetConfig(),
            )

    @pytest.mark.parametrize(
        "down_sets, message",
        [
            ([{99}, {-3}, set()], r"leaf_down_sets\[0\] names leaf 99,"),
            ([set(), {-3}, set()], r"leaf_down_sets\[1\] names leaf -3,"),
            ([set(), set(), {2, 6}], r"leaf_down_sets\[2\] names leaf 6,"),
        ],
        ids=["past-the-tree", "negative", "one-past-the-end"],
    )
    def test_unknown_down_leaf_rejected(self, down_sets, message):
        with pytest.raises(NetworkError, match=message):
            run_budget_tree(
                TreeSpec(fanouts=(2, 3), budget_w=600.0),
                [6, 6, 6],
                leaf_down_sets=[frozenset(d) for d in down_sets],
                net=NetConfig(),
            )

    def test_unknown_outage_path_raises_at_step(self):
        sim, loaded = _warm_tree()
        outage = SubtreeOutage((5,), 5, 8)
        with pytest.raises(ConfigurationError, match="node 5 does not exist"):
            sim.step(5, loaded, outages=(outage,))


class TestTelemetry:
    def test_demand_aggregates_upward(self):
        # Half-loaded tree: the root's reported demand should eventually
        # approximate the loaded leaves' nominal share, not the full fleet.
        spec = TreeSpec(fanouts=(2, 4), budget_w=800.0)
        sim = BudgetTreeSimulator(spec, net=NetConfig(seed=1))
        loaded = frozenset(range(4))  # only PDU 0's leaves
        for step in range(40):
            sim.step(step, loaded)
        root = sim.nodes[()].controller
        per_leaf = 800.0 / 8
        assert root.total_reported_demand_w() == pytest.approx(
            4 * per_leaf, rel=0.01
        )
        assert root.reported_demand_w(1) == pytest.approx(0.0, abs=1e-9)

    def test_hierarchy_gauges_exported(self):
        metrics = MetricsRegistry()
        run_tree(fanouts=(3, 4), metrics=metrics)
        gauges = metrics.gauges()
        assert gauges["hierarchy.levels"] == 2.0
        assert gauges["hierarchy.leaves"] == 12.0
        assert gauges["hierarchy.nodes"] == 4.0
        assert 0.0 < gauges["hierarchy.max_utilization"] <= 1.0 + 1e-9
