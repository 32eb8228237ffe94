"""ALS factorization and the two-plane collaborative estimator."""

import numpy as np
import pytest

from repro.errors import LearningError
from repro.learning.collaborative import AlsFactorizer, CollaborativeEstimator
from repro.learning.crossval import build_exhaustive_corpus
from repro.learning.matrix import PreferenceMatrix
from repro.learning.sampling import StratifiedSampler
from repro.server.perf_model import PerformanceModel
from repro.server.power_model import PowerModel
from repro.workloads.catalog import CATALOG


def low_rank_matrix(n_rows=8, n_cols=40, rank=3, seed=0):
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.5, 1.5, (n_rows, rank))
    v = rng.uniform(0.5, 1.5, (n_cols, rank))
    return u @ v.T


class TestAlsFactorizer:
    def test_reconstructs_fully_observed_low_rank(self):
        values = low_rank_matrix()
        als = AlsFactorizer()
        als.fit(values, np.ones_like(values, dtype=bool))
        error = np.abs(als.predict_full() - values).max() / values.max()
        assert error < 0.02

    def test_completes_partially_observed(self):
        values = low_rank_matrix()
        rng = np.random.default_rng(1)
        mask = rng.uniform(size=values.shape) < 0.6
        mask[:, 0] = True  # keep every column constrained enough
        mask[0, :] = True
        als = AlsFactorizer()
        als.fit(values, mask)
        hidden = ~mask
        rel = np.abs(als.predict_full() - values)[hidden].mean() / values.mean()
        assert rel < 0.1

    def test_fold_in_recovers_new_row(self):
        values = low_rank_matrix(n_rows=9)
        train, held = values[:8], values[8]
        als = AlsFactorizer()
        als.fit(train, np.ones_like(train, dtype=bool))
        cols = np.arange(0, 40, 4)  # 25% sample
        predicted = als.fold_in(cols, held[cols])
        rel = np.abs(predicted - held).mean() / held.mean()
        assert rel < 0.1

    def test_fold_in_trusts_measurements(self):
        values = low_rank_matrix()
        als = AlsFactorizer()
        als.fit(values, np.ones_like(values, dtype=bool))
        predicted = als.fold_in(np.array([5]), np.array([123.0]))
        assert predicted[5] == 123.0

    def test_unfitted_predict_rejected(self):
        with pytest.raises(LearningError):
            AlsFactorizer().predict_full()

    def test_unfitted_fold_in_rejected(self):
        with pytest.raises(LearningError):
            AlsFactorizer().fold_in(np.array([0]), np.array([1.0]))

    def test_empty_matrix_rejected(self):
        with pytest.raises(LearningError):
            AlsFactorizer().fit(np.empty((0, 5)), np.empty((0, 5), dtype=bool))

    def test_unobserved_row_rejected(self):
        values = low_rank_matrix(n_rows=3)
        mask = np.ones_like(values, dtype=bool)
        mask[1, :] = False
        with pytest.raises(LearningError):
            AlsFactorizer().fit(values, mask)

    def test_fold_in_misaligned_rejected(self):
        values = low_rank_matrix()
        als = AlsFactorizer()
        als.fit(values, np.ones_like(values, dtype=bool))
        with pytest.raises(LearningError):
            als.fold_in(np.array([0, 1]), np.array([1.0]))


class TestCollaborativeEstimator:
    @pytest.fixture(scope="class")
    def corpus(self, config):
        profiles = [p for n, p in sorted(CATALOG.items()) if n != "sssp"]
        return build_exhaustive_corpus(config, profiles)

    def test_estimates_held_out_app_accurately(self, corpus, config):
        """The headline property: 10% sampling recovers the surface."""
        perf_model = PerformanceModel(config)
        power_model = PowerModel(config, perf_model)
        sssp = CATALOG["sssp"]
        estimator = CollaborativeEstimator()
        estimator.train(corpus)
        sampler = StratifiedSampler(0.10, seed=3)
        samples = {
            knob: (power_model.app_power_w(sssp, knob), perf_model.rate(sssp, knob))
            for knob in sampler.select(config)
        }
        estimate = estimator.estimate(corpus, samples)
        true_power = np.array(
            [power_model.app_power_w(sssp, k) for k in config.knob_space()]
        )
        true_perf = np.array([perf_model.rate(sssp, k) for k in config.knob_space()])
        power_rmse = float(np.sqrt(np.mean((estimate.power_w - true_power) ** 2)))
        perf_rel = float(
            np.sqrt(np.mean(((estimate.perf - true_perf) / true_perf.max()) ** 2))
        )
        assert power_rmse < 1.0  # within a watt, on a 7-25 W surface
        assert perf_rel < 0.08

    def test_untrained_estimate_rejected(self, corpus, config):
        estimator = CollaborativeEstimator()
        with pytest.raises(LearningError):
            estimator.estimate(corpus, {config.max_knob: (1.0, 1.0)})

    def test_empty_samples_rejected(self, corpus):
        estimator = CollaborativeEstimator()
        estimator.train(corpus)
        with pytest.raises(LearningError):
            estimator.estimate(corpus, {})

    def test_empty_corpus_rejected(self, config):
        estimator = CollaborativeEstimator()
        with pytest.raises(LearningError):
            estimator.train(PreferenceMatrix(config))

    def test_estimates_are_nonnegative(self, corpus, config):
        perf_model = PerformanceModel(config)
        power_model = PowerModel(config, perf_model)
        sssp = CATALOG["sssp"]
        estimator = CollaborativeEstimator()
        estimator.train(corpus)
        samples = {
            knob: (power_model.app_power_w(sssp, knob), perf_model.rate(sssp, knob))
            for knob in StratifiedSampler(0.05, seed=1).select(config)
        }
        estimate = estimator.estimate(corpus, samples)
        assert (estimate.power_w >= 0).all()
        assert (estimate.perf >= 0).all()
