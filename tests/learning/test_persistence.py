"""PreferenceMatrix persistence: save/load round trips, signature checks."""

import numpy as np
import pytest

from repro.errors import LearningError
from repro.learning.crossval import build_exhaustive_corpus
from repro.learning.matrix import PreferenceMatrix
from repro.server.config import ServerConfig
from repro.workloads.catalog import CATALOG


class TestPersistence:
    def test_round_trip(self, config, tmp_path):
        corpus = build_exhaustive_corpus(config, [CATALOG["kmeans"], CATALOG["stream"]])
        path = tmp_path / "corpus.npz"
        corpus.save(path)
        loaded = PreferenceMatrix.load(path, config)
        assert loaded.apps == corpus.apps
        for app in corpus.apps:
            assert np.allclose(loaded.power_row(app), corpus.power_row(app))
            assert np.allclose(loaded.perf_row(app), corpus.perf_row(app))

    def test_partial_observations_survive(self, config, tmp_path):
        matrix = PreferenceMatrix(config)
        matrix.add_app("a")
        matrix.observe("a", config.max_knob, power_w=20.0, perf=3.0)
        path = tmp_path / "partial.npz"
        matrix.save(path)
        loaded = PreferenceMatrix.load(path, config)
        assert loaded.row_observation_count("a") == 1
        assert loaded.density() == matrix.density()

    def test_mismatched_knob_space_rejected(self, config, tmp_path):
        matrix = PreferenceMatrix(config)
        matrix.add_app("a")
        path = tmp_path / "m.npz"
        matrix.save(path)
        other = ServerConfig(dram_power_max_w=8.0)
        with pytest.raises(LearningError):
            PreferenceMatrix.load(path, other)

    def test_loaded_corpus_trains_estimator(self, config, tmp_path):
        from repro.learning.collaborative import CollaborativeEstimator

        corpus = build_exhaustive_corpus(
            config, [p for n, p in sorted(CATALOG.items())][:6]
        )
        path = tmp_path / "c.npz"
        corpus.save(path)
        loaded = PreferenceMatrix.load(path, config)
        estimator = CollaborativeEstimator()
        estimator.train(loaded)
        assert estimator.is_trained


class TestTamperedFiles:
    """``load`` checks every array before adopting it, and never unpickles."""

    @staticmethod
    def tamper(config, tmp_path, **overrides):
        """Save a two-app matrix, then rewrite some of its arrays."""
        corpus = build_exhaustive_corpus(config, [CATALOG["kmeans"], CATALOG["stream"]])
        good = tmp_path / "good.npz"
        corpus.save(good)
        with np.load(good, allow_pickle=False) as data:
            arrays = {key: data[key] for key in data.files}
        arrays.update(overrides)
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        return bad, arrays

    def test_save_writes_app_names_as_strings(self, config, tmp_path):
        _, arrays = self.tamper(config, tmp_path)
        assert arrays["apps"].dtype.kind == "U"
        assert arrays["apps"].tolist() == ["kmeans", "stream"]

    def test_object_array_rejected_without_unpickling(self, config, tmp_path):
        path, _ = self.tamper(
            config, tmp_path, apps=np.array(["kmeans", "stream"], dtype=object)
        )
        with pytest.raises(LearningError, match="not a stored preference matrix"):
            PreferenceMatrix.load(path, config)

    def test_more_app_names_than_rows_rejected(self, config, tmp_path):
        path, _ = self.tamper(config, tmp_path, apps=np.array(["kmeans", "stream", "bfs"]))
        with pytest.raises(LearningError, match="shape"):
            PreferenceMatrix.load(path, config)

    def test_truncated_columns_rejected(self, config, tmp_path):
        _, arrays = self.tamper(config, tmp_path)
        path, _ = self.tamper(
            config, tmp_path, power=arrays["power"][:, :-1], perf=arrays["perf"][:, :-1]
        )
        with pytest.raises(LearningError, match="shape"):
            PreferenceMatrix.load(path, config)

    @pytest.mark.parametrize("bad", [-1.0, float("inf"), float("-inf")])
    @pytest.mark.parametrize("plane", ["power", "perf"])
    def test_negative_or_infinite_values_rejected(self, config, tmp_path, plane, bad):
        _, arrays = self.tamper(config, tmp_path)
        values = arrays[plane].copy()
        values[1, 5] = bad
        path, _ = self.tamper(config, tmp_path, **{plane: values})
        with pytest.raises(LearningError, match="neither NaN nor finite"):
            PreferenceMatrix.load(path, config)

    def test_nan_still_means_unobserved(self, config, tmp_path):
        _, arrays = self.tamper(config, tmp_path)
        power, perf = arrays["power"].copy(), arrays["perf"].copy()
        power[0, 3] = perf[0, 3] = np.nan
        path, _ = self.tamper(config, tmp_path, power=power, perf=perf)
        loaded = PreferenceMatrix.load(path, config)
        assert loaded.row_observation_count("kmeans") == loaded.n_columns - 1

    def test_missing_array_rejected(self, config, tmp_path):
        _, arrays = self.tamper(config, tmp_path)
        del arrays["perf"]
        path = tmp_path / "missing.npz"
        np.savez(path, **arrays)
        with pytest.raises(LearningError, match="not a stored preference matrix"):
            PreferenceMatrix.load(path, config)
