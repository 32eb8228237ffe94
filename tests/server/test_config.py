"""ServerConfig: Table I constants, knob space, validation."""

import pytest

from repro.errors import ConfigurationError, KnobError
from repro.server.config import DEFAULT_SERVER_CONFIG, KnobSetting, ServerConfig, frange


class TestTableI:
    """The defaults must match the paper's platform exactly."""

    def test_core_count(self, config):
        assert config.total_cores == 12
        assert config.sockets == 2
        assert config.cores_per_socket == 6

    def test_frequency_range_and_steps(self, config):
        freqs = config.frequencies_ghz
        assert len(freqs) == 9
        assert freqs[0] == 1.2
        assert freqs[-1] == 2.0

    def test_power_constants(self, config):
        assert config.p_idle_w == 50.0
        assert config.p_cm_w == 20.0
        assert config.p_dynamic_max_w == 60.0

    def test_rated_power(self, config):
        assert config.uncapped_power_w == 130.0

    def test_llc_and_memory(self, config):
        assert config.llc_mb_per_socket == 15.0
        assert config.memory_gb == 8.0


class TestKnobSpace:
    def test_knob_space_size(self, config):
        # 9 frequencies x 6 core counts x 8 DRAM levels
        assert len(config.knob_space()) == 9 * 6 * 8

    def test_knob_space_order_is_stable(self, config):
        assert config.knob_space() == config.knob_space()
        # Frequency-major, then cores, then DRAM power: ascending tuples.
        assert config.knob_space() == sorted(config.knob_space())

    def test_max_and_min_knobs_are_members(self, config):
        space = config.knob_space()
        assert config.max_knob in space
        assert config.min_knob in space

    def test_max_knob_values(self, config):
        knob = config.max_knob
        assert knob == KnobSetting(2.0, 6, 10.0)

    def test_min_knob_values(self, config):
        assert config.min_knob == KnobSetting(1.2, 1, 3.0)

    def test_dram_levels(self, config):
        assert config.dram_powers_w == [3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]

    def test_core_counts(self, config):
        assert config.core_counts == [1, 2, 3, 4, 5, 6]


class TestValidation:
    def test_validate_accepts_grid_points(self, config):
        config.validate_knob(KnobSetting(1.5, 3, 7.0))

    def test_validate_rejects_off_grid_frequency(self, config):
        with pytest.raises(KnobError):
            config.validate_knob(KnobSetting(1.55, 3, 7.0))

    def test_validate_rejects_bad_core_count(self, config):
        with pytest.raises(KnobError):
            config.validate_knob(KnobSetting(1.5, 7, 7.0))

    def test_validate_rejects_bad_dram_power(self, config):
        with pytest.raises(KnobError):
            config.validate_knob(KnobSetting(1.5, 3, 2.0))

    def test_bad_guard_band_rejected(self):
        with pytest.raises(ConfigurationError):
            ServerConfig(rapl_guard_band=1.5)


class TestDynamicBudget:
    def test_paper_100w_scenario(self, config):
        assert config.dynamic_budget_w(100.0) == 30.0

    def test_paper_80w_scenario(self, config):
        assert config.dynamic_budget_w(80.0) == 10.0

    def test_paper_70w_scenario_is_negative(self, config):
        # At 70 W not even chip-maintenance power fits: ESD territory.
        assert config.dynamic_budget_w(70.0) == 0.0


class TestDefaultInstance:
    def test_default_is_table_i(self):
        assert DEFAULT_SERVER_CONFIG == ServerConfig()


class TestFrange:
    def test_paper_dvfs_steps(self):
        steps = frange(1.2, 2.0, 0.1)
        assert len(steps) == 9
        assert steps[0] == 1.2
        assert steps[-1] == 2.0

    def test_no_float_drift(self):
        steps = frange(3.0, 10.0, 1.0)
        assert steps == [3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]

    def test_single_point(self):
        assert frange(1.0, 1.0, 0.5) == [1.0]

    def test_negative_step_raises(self):
        with pytest.raises(ValueError):
            frange(0.0, 1.0, -0.1)
