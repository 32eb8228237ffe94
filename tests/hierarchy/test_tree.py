"""Budget-tree topology: safe tiers, paths, failure-domain schedules."""

import pytest

from repro.cluster.controlplane import ControlPlaneConfig
from repro.errors import ConfigurationError, NetworkError
from repro.faults.plan import FaultPlan, FaultSpec
from repro.hierarchy.tree import (
    SubtreeOutage,
    TreeSpec,
    TreeTopology,
    format_path,
    parse_path,
    subtree_outages_from_fault_plan,
    validate_subtree_outages,
)


def topology(fanouts=(2, 3), budget_w=1200.0, **kwargs):
    return TreeTopology(
        spec=TreeSpec(fanouts=fanouts, budget_w=budget_w, **kwargs),
        config=ControlPlaneConfig(),
    )


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fanouts": ()},
            {"fanouts": (2,) * 7},
            {"fanouts": (2, 0)},
            {"fanouts": (2,), "budget_w": 0.0},
            {"fanouts": (2,), "quantum_w": 0.0},
        ],
    )
    def test_bad_spec(self, kwargs):
        kwargs.setdefault("budget_w", 100.0)
        with pytest.raises(NetworkError):
            TreeSpec(**kwargs)

    def test_default_level_names(self):
        assert TreeSpec(fanouts=(4,), budget_w=400.0).level_names == (
            "datacenter",
            "server",
        )
        assert TreeSpec(fanouts=(2, 3, 4), budget_w=4000.0).level_names == (
            "datacenter",
            "pdu",
            "rack",
            "server",
        )


class TestPaths:
    def test_parse_and_format_invert(self):
        assert parse_path("2.0") == (2, 0)
        assert format_path((2, 0)) == "2.0"
        assert format_path(()) == "root"

    @pytest.mark.parametrize("text", ["", "a.b", "2.-1", "2..0"])
    def test_bad_paths_rejected(self, text):
        with pytest.raises(ConfigurationError):
            parse_path(text)


class TestTopology:
    def test_safe_tier_recurrence_bounds_every_level(self):
        topo = topology(fanouts=(3, 4, 5), budget_w=9000.0)
        # At every interior node the children's safe caps must sum inside
        # the node's own safe cap - this is what makes the waterfall safe.
        for path in topo.interior_paths():
            children_total = sum(
                topo.safe_caps_w[c] for c in topo.children(path)
            )
            assert children_total <= topo.safe_caps_w[path] + 1e-9

    def test_uniform_within_level(self):
        topo = topology(fanouts=(2, 3))
        level1 = {topo.safe_caps_w[(i,)] for i in range(2)}
        leaves = {topo.safe_caps_w[p] for p in topo.leaf_paths()}
        assert len(level1) == 1 and len(leaves) == 1

    def test_too_deep_budget_rejected_naming_level(self):
        with pytest.raises(NetworkError, match="no safe cap at server level"):
            topology(fanouts=(4, 4, 4), budget_w=100.0)

    def test_leaf_index_is_row_major(self):
        topo = topology(fanouts=(2, 3))
        assert [topo.leaf_index(p) for p in topo.leaf_paths()] == list(range(6))
        assert topo.leaf_index((1, 2)) == 5

    @pytest.mark.parametrize(
        "path",
        [
            (0, 4),  # would alias leaf (1, 1)
            (5, 0),  # past the last leaf
            (-1, 2),  # would index the end of a cap row
            (1,),  # interior, not a leaf
            (0, 1, 0),  # deeper than the tree
        ],
    )
    def test_leaf_index_rejects_paths_the_tree_lacks(self, path):
        topo = topology(fanouts=(2, 3))
        with pytest.raises(ConfigurationError, match="not a leaf path"):
            topo.leaf_index(path)

    def test_leaf_index_and_leaves_under_agree_on_a_deep_tree(self):
        topo = topology(fanouts=(3, 2, 4), budget_w=2400.0)
        ids = [topo.leaf_index(p) for p in topo.leaf_paths()]
        assert ids == list(range(topo.n_leaves))
        for path in topo.safe_caps_w:
            under = [
                topo.leaf_index(leaf)
                for leaf in topo.leaf_paths()
                if leaf[: len(path)] == path
            ]
            assert topo.leaves_under(path) == range(under[0], under[-1] + 1)

    def test_leaves_under_subtree(self):
        topo = topology(fanouts=(2, 3))
        assert topo.leaves_under((1,)) == range(3, 6)
        assert topo.leaves_under(()) == range(0, 6)
        with pytest.raises(ConfigurationError, match="5 does not exist"):
            topo.leaves_under((5,))

    def test_interior_paths_are_bfs_root_first(self):
        topo = topology(fanouts=(2, 2))
        assert topo.interior_paths() == [(), (0,), (1,)]


class TestSubtreeOutages:
    def test_root_outage_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot target the root"):
            SubtreeOutage(path=(), start_step=0, end_step=5)

    def test_empty_window_rejected(self):
        with pytest.raises(ConfigurationError):
            SubtreeOutage(path=(0,), start_step=5, end_step=5)

    def test_unknown_path_rejected_naming_it(self):
        topo = topology()
        with pytest.raises(
            ConfigurationError, match=r"outages\[0\]\.path: node 7"
        ):
            validate_subtree_outages(
                (SubtreeOutage(path=(7,), start_step=0, end_step=5),),
                topo,
                n_steps=50,
            )

    def test_leaf_path_rejected(self):
        topo = topology()
        with pytest.raises(ConfigurationError, match="is a\n?.*leaf|leaf"):
            validate_subtree_outages(
                (SubtreeOutage(path=(0, 0), start_step=0, end_step=5),),
                topo,
                n_steps=50,
            )

    def test_nested_overlap_rejected(self):
        topo = topology(fanouts=(2, 2, 2), budget_w=8000.0)
        outages = (
            SubtreeOutage(path=(0,), start_step=0, end_step=10),
            SubtreeOutage(path=(0, 1), start_step=5, end_step=15),
        )
        with pytest.raises(
            ConfigurationError, match=r"outages\[1\]\.start_step: overlaps"
        ):
            validate_subtree_outages(outages, topo, n_steps=50)

    def test_sibling_overlap_allowed(self):
        topo = topology()
        outages = (
            SubtreeOutage(path=(0,), start_step=0, end_step=10),
            SubtreeOutage(path=(1,), start_step=5, end_step=15),
        )
        assert validate_subtree_outages(outages, topo, n_steps=50) == outages

    def test_clamp_and_drop_past_trace(self):
        topo = topology()
        outages = (
            SubtreeOutage(path=(0,), start_step=40, end_step=99),
            SubtreeOutage(path=(1,), start_step=60, end_step=70),
        )
        (kept,) = validate_subtree_outages(outages, topo, n_steps=50)
        assert kept == SubtreeOutage(path=(0,), start_step=40, end_step=50)


class TestFaultPlanConversion:
    def test_pdu_and_rack_specs_become_outages(self):
        topo = topology(fanouts=(2, 3))
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="pdu", mode="outage", start_s=60.0, duration_s=120.0, target="1"),
                FaultSpec(kind="rack", mode="outage", start_s=0.0, duration_s=30.0, target="0"),
                FaultSpec(kind="rapl", mode="drop", start_s=5.0, duration_s=4.0),
            )
        )
        outages = subtree_outages_from_fault_plan(plan, step_s=60.0, topology=topo)
        # Depth 2: both pdu and rack faults target depth-1 nodes. The plan
        # keeps specs sorted by start time, so the rack fault converts first.
        assert outages == (
            SubtreeOutage(path=(0,), start_step=0, end_step=1),
            SubtreeOutage(path=(1,), start_step=1, end_step=3),
        )

    def test_rack_targets_deepest_interior_level(self):
        topo = topology(fanouts=(2, 2, 2), budget_w=8000.0)
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="rack", mode="outage", start_s=0.0, duration_s=60.0, target="1.0"),
            )
        )
        (outage,) = subtree_outages_from_fault_plan(plan, step_s=60.0, topology=topo)
        assert outage.path == (1, 0)

    def test_wrong_depth_target_rejected(self):
        topo = topology(fanouts=(2, 2, 2), budget_w=8000.0)
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="pdu", mode="outage", start_s=0.0, duration_s=60.0, target="1.0"),
            )
        )
        with pytest.raises(
            ConfigurationError, match="'1.0' does not name a pdu-level node"
        ):
            subtree_outages_from_fault_plan(plan, step_s=60.0, topology=topo)

    def test_unknown_target_rejected(self):
        topo = topology()
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="pdu", mode="outage", start_s=0.0, duration_s=60.0, target="9"),
            )
        )
        with pytest.raises(ConfigurationError, match="'9' does not name"):
            subtree_outages_from_fault_plan(plan, step_s=60.0, topology=topo)
