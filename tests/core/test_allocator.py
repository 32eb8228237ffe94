"""PowerAllocator: knapsack optimality, budget feasibility, exclusions."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.core.allocator import PowerAllocator
from repro.core.utility import CandidateSet
from repro.engine.surface import GRAIN_W
from repro.workloads.catalog import CATALOG


@pytest.fixture(scope="module")
def csets(config, power_model):
    return {
        name: CandidateSet.from_models(CATALOG[name], config, power_model=power_model)
        for name in ("pagerank", "kmeans", "stream", "sssp")
    }


def pair(csets, a, b):
    return {a: csets[a], b: csets[b]}


class TestFeasibility:
    def test_allocation_respects_budget(self, csets):
        allocator = PowerAllocator()
        for budget in (12.0, 20.0, 30.0, 45.0):
            allocation = allocator.allocate(pair(csets, "pagerank", "kmeans"), budget)
            assert allocation.total_power_w <= budget + 1e-9

    def test_generous_budget_gives_everyone_max(self, csets):
        allocation = PowerAllocator().allocate(pair(csets, "pagerank", "kmeans"), 60.0)
        for app in ("pagerank", "kmeans"):
            assert allocation.apps[app].relative_perf == pytest.approx(1.0, abs=1e-6)

    def test_tiny_budget_excludes_everyone(self, csets):
        allocation = PowerAllocator().allocate(pair(csets, "pagerank", "kmeans"), 2.0)
        assert allocation.excluded == ["kmeans", "pagerank"]
        assert allocation.total_power_w == 0.0

    def test_stringent_budget_runs_a_subset(self, csets):
        """The 80 W regime: one app's minimum fits, two don't."""
        allocation = PowerAllocator().allocate(pair(csets, "pagerank", "kmeans"), 10.0)
        assert len(allocation.included) == 1
        assert len(allocation.excluded) == 1

    def test_empty_candidates_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerAllocator().allocate({}, 30.0)

    @pytest.mark.parametrize("budget", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_budget_rejected(self, csets, budget):
        with pytest.raises(ConfigurationError, match="budget must be finite"):
            PowerAllocator().allocate(pair(csets, "pagerank", "kmeans"), budget)


class TestOptimality:
    def test_beats_or_matches_fair_split(self, csets):
        """The DP's whole purpose: never worse than the even division."""
        allocator = PowerAllocator()
        for a, b in (("pagerank", "kmeans"), ("stream", "kmeans"), ("sssp", "pagerank")):
            candidates = pair(csets, a, b)
            for budget in (20.0, 26.0, 30.0, 36.0):
                dp = allocator.allocate(candidates, budget)
                fair = allocator.allocate_fair(candidates, budget)
                assert dp.objective >= fair.objective - 1e-6

    def test_matches_exhaustive_two_app_optimum(self, csets):
        """Check against brute force over both Pareto frontiers: the DP
        never beats the exact optimum, and rounding each app's cost up to
        the grid loses at most one grain per app."""
        candidates = pair(csets, "pagerank", "stream")
        budget = 28.0
        dp = PowerAllocator().allocate(candidates, budget)

        fa = candidates["pagerank"].frontier.indices.tolist()
        fb = candidates["stream"].frontier.indices.tolist()
        ca, cb = candidates["pagerank"], candidates["stream"]

        def best(limit):
            return max(
                (
                    ca.perf[i] / ca.perf_nocap + cb.perf[j] / cb.perf_nocap
                    for i in fa
                    for j in fb
                    if ca.power_w[i] + cb.power_w[j] <= limit
                ),
                default=0.0,
            )

        assert best(budget - 2 * GRAIN_W) - 1e-9 <= dp.objective <= best(budget) + 1e-9

    def test_single_app_gets_best_under_budget(self, csets):
        cset = csets["kmeans"]
        allocation = PowerAllocator().allocate({"kmeans": cset}, 15.0)
        idx = cset.best_index_under(15.0)
        assert allocation.apps["kmeans"].relative_perf == pytest.approx(
            float(cset.perf[idx] / cset.perf_nocap), abs=0.02
        )

    def test_splits_reflect_utility_differences(self, csets):
        """Mix-10: PageRank earns the larger share (the paper's 55-45)."""
        allocation = PowerAllocator().allocate(pair(csets, "pagerank", "kmeans"), 30.0)
        assert allocation.share_of("pagerank") > allocation.share_of("kmeans")


class TestFairSplit:
    def test_equal_budgets(self, csets):
        allocation = PowerAllocator().allocate_fair(
            pair(csets, "pagerank", "kmeans"), 30.0
        )
        for app in ("pagerank", "kmeans"):
            assert allocation.apps[app].power_w <= 15.0 + 1e-9

    def test_infeasible_share_excludes(self, csets):
        allocation = PowerAllocator().allocate_fair(
            pair(csets, "pagerank", "kmeans"), 10.0
        )
        assert allocation.excluded == ["kmeans", "pagerank"]


class TestAccounting:
    def test_shares_sum_to_one_when_running(self, csets):
        allocation = PowerAllocator().allocate(pair(csets, "stream", "kmeans"), 30.0)
        total = sum(allocation.share_of(a) for a in ("stream", "kmeans"))
        assert total == pytest.approx(1.0)

    def test_objective_matches_summed_relative_perf(self, csets):
        allocation = PowerAllocator().allocate(pair(csets, "stream", "kmeans"), 30.0)
        summed = sum(
            a.relative_perf for a in allocation.apps.values() if not a.excluded
        )
        assert allocation.objective == pytest.approx(summed, abs=1e-6)

    def test_excluded_app_records(self, csets):
        allocation = PowerAllocator().allocate(pair(csets, "pagerank", "kmeans"), 10.0)
        for name in allocation.excluded:
            record = allocation.apps[name]
            assert record.power_w == 0.0
            assert record.relative_perf == 0.0
            assert allocation.share_of(name) == 0.0


class TestWeights:
    """The TrustScorer's allocation de-weighting path."""

    @pytest.mark.parametrize(
        "bad", [0.0, -1.0, float("nan"), float("inf")]
    )
    def test_invalid_weight_rejected(self, csets, bad):
        allocator = PowerAllocator()
        with pytest.raises(ConfigurationError, match="must be positive and finite"):
            allocator.allocate(
                pair(csets, "stream", "kmeans"), 30.0, weights={"stream": bad}
            )
        with pytest.raises(ConfigurationError, match="must be positive and finite"):
            allocator.allocate_fair(
                pair(csets, "stream", "kmeans"), 30.0, weights={"stream": bad}
            )

    def test_all_ones_weights_are_a_perfect_noop(self, csets):
        """Golden traces pin defense-on == defense-off for honest tenants:
        trivial weights must not even enter the weighted code path."""
        allocator = PowerAllocator()
        plain = allocator.allocate(pair(csets, "stream", "kmeans"), 30.0)
        ones = allocator.allocate(
            pair(csets, "stream", "kmeans"), 30.0,
            weights={"stream": 1.0, "kmeans": 1.0},
        )
        assert ones == plain

    def test_missing_apps_default_to_weight_one(self, csets):
        allocator = PowerAllocator()
        plain = allocator.allocate(pair(csets, "stream", "kmeans"), 30.0)
        partial = allocator.allocate(
            pair(csets, "stream", "kmeans"), 30.0, weights={"ghost": 0.5}
        )
        assert partial == plain

    def test_deweighted_app_loses_budget(self, csets):
        allocator = PowerAllocator()
        plain = allocator.allocate(pair(csets, "stream", "kmeans"), 26.0)
        tilted = allocator.allocate(
            pair(csets, "stream", "kmeans"), 26.0, weights={"stream": 0.05}
        )
        assert tilted.apps["stream"].power_w <= plain.apps["stream"].power_w
        assert tilted.apps["kmeans"].power_w >= plain.apps["kmeans"].power_w
        assert tilted.apps["kmeans"].relative_perf >= plain.apps["kmeans"].relative_perf

    def test_fair_objective_reported_in_weighted_units(self, csets):
        """allocate() compares the knapsack against the fair floor by
        objective; both must be in the same (weighted) units."""
        allocator = PowerAllocator()
        weights = {"stream": 0.25, "kmeans": 1.0}
        plain = allocator.allocate_fair(pair(csets, "stream", "kmeans"), 30.0)
        weighted = allocator.allocate_fair(
            pair(csets, "stream", "kmeans"), 30.0, weights=weights
        )
        # Per-app knob choices are weight-independent ...
        for app in ("stream", "kmeans"):
            assert weighted.apps[app] == plain.apps[app]
        # ... but the reported objective is scaled.
        expected = sum(
            weights[a.app] * a.relative_perf
            for a in plain.apps.values()
            if not a.excluded
        )
        assert weighted.objective == pytest.approx(expected, abs=1e-9)
