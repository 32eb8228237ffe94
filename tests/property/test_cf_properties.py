"""Hypothesis: collaborative-filtering properties on synthetic low-rank data."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.learning.collaborative import AlsFactorizer


def low_rank(seed, n_rows, n_cols, rank):
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.5, 1.5, (n_rows, rank))
    v = rng.uniform(0.5, 1.5, (n_cols, rank))
    return u @ v.T


class TestFactorizationProperties:
    @given(
        seed=st.integers(min_value=0, max_value=1000),
        rank=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=20, deadline=None)
    def test_full_observation_reconstruction(self, seed, rank):
        values = low_rank(seed, 6, 30, rank)
        als = AlsFactorizer(seed=seed)
        als.fit(values, np.ones_like(values, dtype=bool))
        rel = np.abs(als.predict_full() - values).max() / values.max()
        assert rel < 0.05

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_fold_in_exact_on_measured_cells(self, seed):
        values = low_rank(seed, 6, 30, 3)
        als = AlsFactorizer(seed=seed)
        als.fit(values, np.ones_like(values, dtype=bool))
        rng = np.random.default_rng(seed)
        cols = rng.choice(30, size=8, replace=False)
        measured = rng.uniform(0.5, 2.0, size=8)
        predicted = als.fold_in(cols, measured)
        assert np.allclose(predicted[cols], measured)

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=15, deadline=None)
    def test_determinism(self, seed):
        values = low_rank(seed, 5, 20, 2)
        mask = np.ones_like(values, dtype=bool)
        a = AlsFactorizer(seed=seed)
        b = AlsFactorizer(seed=seed)
        a.fit(values, mask)
        b.fit(values, mask)
        assert np.allclose(a.predict_full(), b.predict_full())

    @given(
        seed=st.integers(min_value=0, max_value=500),
        density=st.floats(min_value=0.4, max_value=0.9),
    )
    @settings(max_examples=15, deadline=None)
    def test_partial_observation_generalizes(self, seed, density):
        values = low_rank(seed, 8, 40, 3)
        rng = np.random.default_rng(seed + 1)
        mask = rng.uniform(size=values.shape) < density
        mask[:, 0] = True
        mask[0, :] = True
        als = AlsFactorizer(seed=seed)
        als.fit(values, mask)
        hidden = ~mask
        if hidden.any():
            rel = np.abs(als.predict_full() - values)[hidden].mean() / values.mean()
            assert rel < 0.25
