"""Preference matrices: structure, observation, masks."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, LearningError
from repro.learning.matrix import PreferenceMatrix
from repro.server.config import KnobSetting


@pytest.fixture()
def matrix(config):
    return PreferenceMatrix(config)


class TestStructure:
    def test_columns_match_knob_space(self, matrix, config):
        assert matrix.n_columns == len(config.knob_space())
        assert matrix.columns == config.knob_space()

    def test_column_lookup(self, matrix, config):
        knob = config.knob_space()[17]
        assert matrix.column_of(knob) == 17

    def test_unknown_knob_rejected(self, matrix):
        with pytest.raises(LearningError):
            matrix.column_of(KnobSetting(1.55, 3, 7.0))

    def test_empty_matrix(self, matrix):
        assert matrix.apps == []
        assert matrix.observed_mask().size == 0


class TestObservation:
    def test_add_and_observe(self, matrix, config):
        matrix.add_app("kmeans")
        knob = config.max_knob
        matrix.observe("kmeans", knob, power_w=20.0, perf=3.0)
        col = matrix.column_of(knob)
        assert matrix.power_row("kmeans")[col] == 20.0
        assert matrix.perf_row("kmeans")[col] == 3.0
        assert matrix.observed_mask().sum() == 1

    def test_unobserved_cells_are_nan(self, matrix, config):
        matrix.add_app("a")
        assert np.isnan(matrix.power_row("a")).all()

    def test_duplicate_app_rejected(self, matrix):
        matrix.add_app("a")
        with pytest.raises(LearningError):
            matrix.add_app("a")

    def test_observe_unknown_app_rejected(self, matrix, config):
        with pytest.raises(LearningError):
            matrix.observe("ghost", config.max_knob, power_w=1.0, perf=1.0)

    def test_negative_observation_rejected(self, matrix, config):
        matrix.add_app("a")
        with pytest.raises(ConfigurationError):
            matrix.observe("a", config.max_knob, power_w=-1.0, perf=1.0)

    def test_overwrite_observation(self, matrix, config):
        matrix.add_app("a")
        matrix.observe("a", config.max_knob, power_w=1.0, perf=1.0)
        matrix.observe("a", config.max_knob, power_w=2.0, perf=2.0)
        col = matrix.column_of(config.max_knob)
        assert matrix.power_row("a")[col] == 2.0

    def test_membership(self, matrix):
        matrix.add_app("a")
        assert "a" in matrix
        assert "b" not in matrix


class TestMasks:
    def test_mask_requires_both_planes(self, matrix, config):
        matrix.add_app("a")
        matrix.observe("a", config.max_knob, power_w=1.0, perf=1.0)
        mask = matrix.observed_mask()
        assert mask.sum() == 1

    def test_density(self, matrix, config):
        matrix.add_app("a")
        for knob in config.knob_space():
            matrix.observe("a", knob, power_w=1.0, perf=1.0)
        assert matrix.observed_mask().all()

    def test_rows_are_copies(self, matrix, config):
        matrix.add_app("a")
        matrix.observe("a", config.max_knob, power_w=5.0, perf=1.0)
        row = matrix.power_row("a")
        row[:] = 0.0
        assert matrix.power_row("a")[matrix.column_of(config.max_knob)] == 5.0


class TestValidation:
    """NaN means "unobserved", so no measurement may be NaN, infinite or
    negative."""

    @pytest.mark.parametrize(
        "power_w, perf",
        [(float("nan"), 1.0), (1.0, float("nan")), (float("inf"), 1.0), (1.0, float("inf"))],
    )
    def test_non_finite_observation_rejected(self, matrix, config, power_w, perf):
        matrix.add_app("a")
        with pytest.raises(ConfigurationError, match="finite and non-negative"):
            matrix.observe("a", config.max_knob, power_w=power_w, perf=perf)
        assert not matrix.observed_mask().any()


class TestAddRow:
    def test_equals_add_app_then_observe(self, matrix, config):
        power = np.linspace(5.0, 30.0, matrix.n_columns)
        perf = np.linspace(0.1, 2.0, matrix.n_columns)
        matrix.add_row("a", power_w=power, perf=perf)
        cellwise = PreferenceMatrix(config)
        cellwise.add_app("a")
        for j, knob in enumerate(config.knob_space()):
            cellwise.observe("a", knob, power_w=power[j], perf=perf[j])
        assert np.array_equal(matrix.power_rows(), cellwise.power_rows())
        assert np.array_equal(matrix.perf_rows(), cellwise.perf_rows())
        assert matrix.observed_mask().all()

    def test_row_is_copied(self, matrix):
        power = np.ones(matrix.n_columns)
        matrix.add_row("a", power_w=power, perf=np.ones(matrix.n_columns))
        power[:] = 9.0
        assert (matrix.power_row("a") == 1.0).all()

    def test_duplicate_app_rejected(self, matrix):
        ones = np.ones(matrix.n_columns)
        matrix.add_row("a", power_w=ones, perf=ones)
        with pytest.raises(LearningError, match="already has a row"):
            matrix.add_row("a", power_w=ones, perf=ones)

    @pytest.mark.parametrize("plane", ["power_w", "perf"])
    def test_wrong_length_rejected(self, matrix, plane):
        rows = {"power_w": np.ones(matrix.n_columns), "perf": np.ones(matrix.n_columns)}
        rows[plane] = rows[plane][:-1]
        with pytest.raises(LearningError, match="must hold"):
            matrix.add_row("a", **rows)
        assert matrix.apps == []

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    @pytest.mark.parametrize("plane", ["power_w", "perf"])
    def test_bad_value_rejected_and_matrix_unchanged(self, matrix, plane, bad):
        rows = {"power_w": np.ones(matrix.n_columns), "perf": np.ones(matrix.n_columns)}
        rows[plane][17] = bad
        with pytest.raises(ConfigurationError, match="finite and non-negative"):
            matrix.add_row("a", **rows)
        assert matrix.apps == []
        assert matrix.power_rows().shape == (0, matrix.n_columns)
