"""Utility curves: candidate sets, Pareto envelope, Fig. 2/3 quantities."""

import re

import numpy as np
import pytest

from repro.engine import VectorPowerModel
from repro.errors import ConfigurationError
from repro.core.utility import (
    CandidateSet,
    UtilityCurve,
    app_utility_curve,
    resource_marginal_utilities,
)
from repro.server.config import KnobSetting
from repro.workloads.catalog import CATALOG


class TestCandidateSet:
    def test_from_models_covers_knob_space(self, config, power_model, kmeans):
        cset = CandidateSet.from_models(kmeans, config, power_model=power_model)
        assert len(cset.knobs) == len(config.knob_space())
        assert cset.perf_nocap == pytest.approx(
            power_model.perf_model.peak_rate(kmeans)
        )

    def test_min_max_power(self, config, power_model, kmeans):
        cset = CandidateSet.from_models(kmeans, config, power_model=power_model)
        assert cset.min_power_w == pytest.approx(power_model.min_app_power_w(kmeans))
        assert cset.max_power_w == pytest.approx(power_model.max_app_power_w(kmeans))

    def test_best_index_under_budget(self, config, power_model, kmeans):
        cset = CandidateSet.from_models(kmeans, config, power_model=power_model)
        idx = cset.best_index_under(15.0)
        assert idx is not None
        assert cset.power_w[idx] <= 15.0
        # Nothing feasible beats it.
        feasible = cset.power_w <= 15.0
        assert cset.perf[idx] == pytest.approx(cset.perf[feasible].max())

    def test_best_index_infeasible_budget(self, config, power_model, kmeans):
        cset = CandidateSet.from_models(kmeans, config, power_model=power_model)
        assert cset.best_index_under(1.0) is None

    def test_from_estimates_requires_positive_nocap(self, config):
        n = len(config.knob_space())
        with pytest.raises(ConfigurationError):
            CandidateSet.from_estimates("x", config, np.ones(n), np.zeros(n))

    def test_subset(self, config, power_model, kmeans):
        cset = CandidateSet.from_models(kmeans, config, power_model=power_model)
        sub = cset.subset([0, 5, 10])
        assert len(sub.knobs) == 3
        assert sub.perf_nocap == cset.perf_nocap

    def test_index_of_missing_knob(self, config, power_model, kmeans):
        cset = CandidateSet.from_models(kmeans, config, power_model=power_model)
        sub = cset.subset([0])
        with pytest.raises(ConfigurationError):
            sub.index_of(config.max_knob)

    def test_relative_perf_peaks_at_one(self, config, power_model, kmeans):
        cset = CandidateSet.from_models(kmeans, config, power_model=power_model)
        assert cset.relative_perf().max() == pytest.approx(1.0)


class TestKnobLookup:
    """``index_of`` answers what ``tuple.index`` does, from a knob map."""

    @pytest.fixture(scope="class")
    def sets(self, config, power_model, kmeans):
        vector = CandidateSet.from_models(
            kmeans, config, power_model=VectorPowerModel(config)
        )
        n = len(vector.knobs)
        width = vector.subset(
            [i for i, k in enumerate(vector.knobs) if k.cores <= 4], rebase_nocap=True
        )
        return {
            "vector from_models": vector,
            "scalar from_models": CandidateSet.from_models(
                kmeans, config, power_model=power_model
            ),
            "from_estimates": CandidateSet.from_estimates(
                "x", config, np.linspace(5.0, 30.0, n), np.linspace(0.1, 1.0, n)
            ),
            "width subset": width,
            "repeated index": vector.subset([7, 3, 7, 0, 3]),
            "from_dict": CandidateSet.from_dict(width.to_dict()),
        }

    def test_index_of_matches_tuple_index(self, sets):
        for label, cset in sets.items():
            for knob in cset.knobs:
                assert cset.index_of(knob) == cset.knobs.index(knob), label

    def test_missing_knob_raises_the_same_message(self, sets):
        off_grid = KnobSetting(9.9, 1, 1.0)
        for label, cset in sets.items():
            for knob in (off_grid, sets["vector from_models"].knobs[-1]):
                if knob in cset.knobs:
                    continue
                message = re.escape(f"{knob} is not in this candidate set")
                with pytest.raises(ConfigurationError, match=message):
                    cset.index_of(knob)
                assert cset.position(knob) is None, label

    def test_vector_sets_share_read_only_surface_tables(self, config, kmeans):
        power_model = VectorPowerModel(config)
        cset = CandidateSet.from_models(kmeans, config, power_model=power_model)
        surface = power_model.surface_of(kmeans)
        assert cset.power_w is surface.app_power_w
        assert cset.perf is surface.rate
        assert cset.frontier is surface.frontier
        with pytest.raises(ValueError):
            cset.power_w[0] = 0.0
        with pytest.raises(ValueError):
            cset.perf[0] = 0.0


class TestParetoEnvelope:
    def test_frontier_is_smaller_than_space(self, config, power_model, kmeans):
        cset = CandidateSet.from_models(kmeans, config, power_model=power_model)
        frontier = cset.frontier.indices.tolist()
        assert 2 <= len(frontier) < len(cset.knobs)

    def test_frontier_sorted_by_power_and_perf(self, config, power_model, kmeans):
        cset = CandidateSet.from_models(kmeans, config, power_model=power_model)
        frontier = cset.frontier.indices.tolist()
        powers = [cset.power_w[i] for i in frontier]
        perfs = [cset.perf[i] for i in frontier]
        assert powers == sorted(powers)
        assert perfs == sorted(perfs)

    def test_no_frontier_point_is_dominated(self, config, power_model, stream):
        cset = CandidateSet.from_models(stream, config, power_model=power_model)
        frontier = cset.frontier.indices.tolist()
        for i in frontier:
            dominating = (cset.power_w < cset.power_w[i] - 1e-12) & (
                cset.perf >= cset.perf[i]
            )
            assert not dominating.any()

    def test_frontier_contains_the_best_under_any_budget(
        self, config, power_model, kmeans
    ):
        cset = CandidateSet.from_models(kmeans, config, power_model=power_model)
        frontier = set(cset.frontier.indices.tolist())
        for budget in (10.0, 14.0, 18.0, 25.0):
            best = cset.best_index_under(budget)
            if best is None:
                continue
            best_perf = cset.perf[best]
            frontier_best = max(
                (cset.perf[i] for i in frontier if cset.power_w[i] <= budget),
                default=-1.0,
            )
            assert frontier_best == pytest.approx(best_perf)


class TestUtilityCurve:
    def test_curve_is_monotone(self, config, power_model):
        """Fig. 2: more budget never hurts."""
        for name in ("kmeans", "stream", "sssp"):
            cset = CandidateSet.from_models(CATALOG[name], config, power_model=power_model)
            curve = app_utility_curve(cset)
            values = list(curve.relative_perf)
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_curve_reaches_one_at_full_demand(self, config, power_model, kmeans):
        cset = CandidateSet.from_models(kmeans, config, power_model=power_model)
        curve = app_utility_curve(cset)
        assert curve.relative_perf[-1] == pytest.approx(1.0)

    def test_curve_zero_below_min_power(self, config, power_model, kmeans):
        cset = CandidateSet.from_models(kmeans, config, power_model=power_model)
        curve = app_utility_curve(cset, budgets_w=[1.0, 5.0])
        assert curve.relative_perf == (0.0, 0.0)

    def test_value_at_interpolates_downward(self):
        curve = UtilityCurve("x", (10.0, 20.0), (0.5, 1.0))
        assert curve.value_at(15.0) == 0.5
        assert curve.value_at(25.0) == 1.0
        assert curve.value_at(5.0) == 0.0

    def test_curves_differ_across_apps(self, config, power_model):
        """The premise of R1: utility curves differ between applications."""
        budgets = [10.0, 12.0, 14.0, 16.0, 18.0, 20.0]
        curves = {}
        for name in ("pagerank", "x264"):
            cset = CandidateSet.from_models(CATALOG[name], config, power_model=power_model)
            curves[name] = app_utility_curve(cset, budgets).relative_perf
        assert curves["pagerank"] != curves["x264"]


class TestResourceMarginalUtilities:
    def test_all_resources_reported(self, config, kmeans):
        utilities = resource_marginal_utilities(kmeans, config)
        assert set(utilities) == {"core", "frequency", "memory"}

    def test_stream_values_memory_most(self, config, stream):
        """Fig. 3: the memory app benefits most from memory watts."""
        utilities = resource_marginal_utilities(stream, config)
        assert utilities["memory"] > utilities["frequency"]
        assert utilities["memory"] > utilities["core"]

    def test_kmeans_values_compute(self, config, kmeans):
        utilities = resource_marginal_utilities(kmeans, config)
        assert max(utilities["core"], utilities["frequency"]) > utilities["memory"]
