"""Fig. 7 calibration machinery: corpus building and cross-validation."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.learning.crossval import (
    build_exhaustive_corpus,
    calibrate_sampling_fraction,
)
from repro.workloads.catalog import CATALOG


class TestCorpusBuilding:
    def test_corpus_is_fully_observed(self, config):
        corpus = build_exhaustive_corpus(config, [CATALOG["kmeans"]])
        assert corpus.observed_mask().all()

    def test_noise_free_corpus_matches_models(self, config, power_model):
        corpus = build_exhaustive_corpus(config, [CATALOG["kmeans"]])
        knob = config.max_knob
        col = corpus.column_of(knob)
        assert corpus.power_row("kmeans")[col] == pytest.approx(
            power_model.app_power_w(CATALOG["kmeans"], knob)
        )

    def test_empty_profiles_rejected(self, config):
        with pytest.raises(ConfigurationError):
            build_exhaustive_corpus(config, [])


class TestCalibration:
    @pytest.fixture(scope="class")
    def points(self, config):
        return calibrate_sampling_fraction(
            config,
            list(CATALOG.values()),
            [0.02, 0.10, 0.30],
            seed=11,
        )

    def test_one_point_per_fraction(self, points):
        assert [p.fraction for p in points] == [0.02, 0.10, 0.30]

    def test_error_shrinks_with_sampling(self, points):
        """The Fig. 7 trend: more samples, less estimation error."""
        rmses = [p.power_rmse_w for p in points]
        assert rmses[0] > rmses[-1]
        perf_rmses = [p.perf_rmse_rel for p in points]
        assert perf_rmses[0] > perf_rmses[-1]

    def test_performance_approaches_oracle(self, points):
        assert points[-1].perf_ratio > 0.97
        assert points[-1].perf_ratio >= points[0].perf_ratio - 0.02

    def test_ten_percent_is_a_good_operating_point(self, points):
        """The paper fixes 10%: near-oracle performance, sub-watt error."""
        ten = points[1]
        assert ten.perf_ratio > 0.95
        assert ten.power_rmse_w < 1.0

    def test_ratios_are_sane(self, points):
        for p in points:
            assert 0.0 < p.perf_ratio <= 1.05
            assert 0.0 < p.power_ratio <= 1.2
            assert 0.0 <= p.violation_fraction <= 1.0
            assert p.worst_power_ratio >= p.power_ratio

    def test_too_few_profiles_rejected(self, config):
        with pytest.raises(ConfigurationError):
            calibrate_sampling_fraction(
                config, [CATALOG["kmeans"]], [0.1]
            )

    def test_empty_fractions_rejected(self, config):
        with pytest.raises(ConfigurationError):
            calibrate_sampling_fraction(config, list(CATALOG.values()), [])
