"""Sampling strategies: budgets, determinism, coverage guarantees."""

import pytest

from repro.errors import ConfigurationError
from repro.learning.sampling import Sampler, StratifiedSampler


class TestBudget:
    def test_fraction_to_budget(self, config):
        assert Sampler.budget_from_fraction(config, 0.10) == round(0.10 * 432)

    def test_minimum_one_sample(self, config):
        assert Sampler.budget_from_fraction(config, 0.0001) == 1

    @pytest.mark.parametrize("fraction", [0.0, 1.0001, -0.5])
    def test_invalid_fraction_rejected(self, config, fraction):
        with pytest.raises(ConfigurationError):
            Sampler.budget_from_fraction(config, fraction)

    def test_budget_counts_the_knob_space(self, config):
        for fraction in (0.0001, 0.1, 0.37, 1.0):
            assert Sampler.budget_from_fraction(config, fraction) == max(
                1, int(round(fraction * len(config.knob_space())))
            )

    @pytest.mark.parametrize("fraction", [0.0, 1.0001, -0.5, float("nan")])
    def test_samplers_reject_fraction_at_construction(self, fraction):
        with pytest.raises(ConfigurationError, match=r"fraction must be in \(0, 1\]"):
            StratifiedSampler(fraction)


class TestStratifiedSampler:
    def test_includes_both_corners(self, config):
        samples = StratifiedSampler(0.02, seed=1).select(config)
        assert config.max_knob in samples
        assert config.min_knob in samples

    def test_corners_first_under_tiny_budget(self, config):
        samples = StratifiedSampler(0.005, seed=1).select(config)  # 2 samples
        assert samples[0] == config.max_knob
        assert samples[1] == config.min_knob

    def test_per_dimension_sweeps_present_at_ten_percent(self, config):
        samples = set(StratifiedSampler(0.10, seed=1).select(config))
        # The frequency sweep at (n_max, m_max).
        from repro.server.config import KnobSetting

        for f in config.frequencies_ghz:
            assert KnobSetting(f, config.cores_max, config.dram_power_max_w) in samples
        for n in config.core_counts:
            assert KnobSetting(config.freq_max_ghz, n, config.dram_power_max_w) in samples
        for m in config.dram_powers_w:
            assert KnobSetting(config.freq_max_ghz, config.cores_max, m) in samples

    def test_respects_budget(self, config):
        samples = StratifiedSampler(0.10, seed=1).select(config)
        assert len(samples) == Sampler.budget_from_fraction(config, 0.10)

    def test_no_duplicates(self, config):
        samples = StratifiedSampler(0.20, seed=2).select(config)
        assert len(samples) == len(set(samples))

    def test_random_fill_is_seeded(self, config):
        a = StratifiedSampler(0.30, seed=7).select(config)
        b = StratifiedSampler(0.30, seed=7).select(config)
        assert a == b
