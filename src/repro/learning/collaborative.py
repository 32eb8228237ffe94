"""Collaborative filtering: ALS matrix factorization with new-row fold-in.

"To estimate power and performance of a new application, the system measures
power and performance online for a few samples of (f, n, m) and estimates the
rest by minimizing the estimation errors for the measured values using the
matrix" - Section III-A.

Implementation notes:

* **ALS on observed entries.** Rank-``k`` (:data:`RANK`) alternating least squares with
  ridge regularization: each user/item factor is the closed-form ridge
  solution over its observed entries only. The response surfaces are smooth
  functions of three knobs, so low rank captures them well.
* **Fold-in.** A new application never triggers refactorization on the hot
  path (allocation must settle in ~800 ms on the paper's server): its factor
  is a single ridge solve against the trained item factors restricted to the
  sampled columns, after which every column is predicted.
* **Per-plane scaling.** Power values are absolute watts, comparable across
  applications; they are factorized raw. Performance values differ by
  arbitrary per-app scale (``base_rate``), so each row is normalized by its
  largest observed value before factorization and predictions are rescaled.
  A new app's scale is taken from its largest sampled value - the stratified
  sampler always includes the uncapped corner, matching practice (the first
  thing one measures is uncapped performance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import LearningError
from repro.learning.matrix import PreferenceMatrix
from repro.server.config import KnobSetting


#: Latent dimension ``k`` of the factorization.
RANK = 6
#: L2 regularization weight for both factor solves.
RIDGE = 0.05
#: Alternating sweeps per fit.
ITERATIONS = 25


class AlsFactorizer:
    """Rank-:data:`RANK` ALS on a partially observed matrix.

    Args:
        seed: Factor initialization seed.
    """

    def __init__(self, *, seed: int = 0) -> None:
        self._seed = seed
        self._row_factors: np.ndarray | None = None
        self._col_factors: np.ndarray | None = None

    def fit(self, values: np.ndarray, mask: np.ndarray) -> None:
        """Factorize ``values`` (NaN-free where ``mask`` is True).

        Args:
            values: ``(n_rows, n_cols)`` observations.
            mask: Boolean observed-cell mask of the same shape.

        Raises:
            LearningError: on empty input or rows/columns with zero
                observations (they would be unconstrained).
        """
        if values.shape != mask.shape or values.ndim != 2:
            raise LearningError("values and mask must be equal-shape 2-D arrays")
        n_rows, n_cols = values.shape
        if n_rows == 0 or n_cols == 0:
            raise LearningError("cannot factorize an empty matrix")
        if not mask.any():
            raise LearningError("cannot factorize a fully unobserved matrix")
        if (~mask.any(axis=1)).any():
            raise LearningError("every row needs at least one observation")
        rng = np.random.default_rng(self._seed)
        scale = float(np.sqrt(np.nanmean(np.where(mask, values, np.nan)) / RANK + 1e-12))
        rows = rng.normal(0.0, 0.1, (n_rows, RANK)) + scale
        cols = rng.normal(0.0, 0.1, (n_cols, RANK)) + scale
        eye = RIDGE * np.eye(RANK)
        fully_observed = bool(mask.all())
        for _ in range(ITERATIONS):
            if fully_observed:
                # Dense fast path: all rows share the same Gram matrix, so
                # one solve updates every factor at once.
                rows = np.linalg.solve(cols.T @ cols + eye, cols.T @ values.T).T
                cols = np.linalg.solve(rows.T @ rows + eye, rows.T @ values).T
                continue
            for i in range(n_rows):
                obs = mask[i]
                v = cols[obs]
                rows[i] = np.linalg.solve(v.T @ v + eye, v.T @ values[i, obs])
            for j in range(n_cols):
                obs = mask[:, j]
                if not obs.any():
                    continue  # unconstrained column keeps its prior factor
                u = rows[obs]
                cols[j] = np.linalg.solve(u.T @ u + eye, u.T @ values[obs, j])
        self._row_factors = rows
        self._col_factors = cols

    def predict_full(self) -> np.ndarray:
        """Reconstruction of the training matrix.

        Raises:
            LearningError: before :meth:`fit`.
        """
        if self._row_factors is None or self._col_factors is None:
            raise LearningError("factorizer has not been fitted")
        return self._row_factors @ self._col_factors.T

    def fold_in(self, observed_cols: np.ndarray, observed_values: np.ndarray) -> np.ndarray:
        """Predict a full new row from sparse observations.

        Args:
            observed_cols: Integer column indices that were measured.
            observed_values: Measured values, aligned with ``observed_cols``.

        Returns:
            Predicted values for *all* columns (measured cells are replaced
            by their measured values - the system trusts real measurements
            over estimates).

        Raises:
            LearningError: before :meth:`fit` or with zero observations.
        """
        if self._col_factors is None:
            raise LearningError("factorizer has not been fitted")
        if len(observed_cols) == 0:
            raise LearningError("fold-in requires at least one observation")
        if len(observed_cols) != len(observed_values):
            raise LearningError("columns and values must align")
        v = self._col_factors[np.asarray(observed_cols, dtype=int)]
        y = np.asarray(observed_values, dtype=float)
        eye = RIDGE * np.eye(RANK)
        factor = np.linalg.solve(v.T @ v + eye, v.T @ y)
        prediction = self._col_factors @ factor
        prediction[np.asarray(observed_cols, dtype=int)] = y
        return prediction


@dataclass(frozen=True)
class EstimatedUtilities:
    """A new application's completed response surface.

    Attributes:
        power_w: Estimated ``P_X`` per knob-space column (watts).
        perf: Estimated work rate per column.
        sampled_columns: The columns that were actually measured.
    """

    power_w: np.ndarray
    perf: np.ndarray
    sampled_columns: tuple[int, ...]


class CollaborativeEstimator:
    """Two-plane (power + performance) collaborative estimator.

    Args:
        seed: Initialization seed of the power factorizer; the performance
            one takes ``seed + 1``.
    """

    def __init__(self, *, seed: int = 0) -> None:
        self._power_model = AlsFactorizer(seed=seed)
        self._perf_model = AlsFactorizer(seed=seed + 1)
        self._trained = False

    def train(self, corpus: PreferenceMatrix) -> None:
        """Factorize the corpus of previously seen applications.

        Raises:
            LearningError: on an empty corpus.
        """
        if not corpus.apps:
            raise LearningError("training corpus has no applications")
        mask = corpus.observed_mask()
        power = np.nan_to_num(corpus.power_rows(), nan=0.0)
        perf = np.nan_to_num(corpus.perf_rows(), nan=0.0)
        # Normalize each perf row by its largest observed value (see module
        # docstring); power rows are absolute watts and factorized raw.
        scales = np.where(mask, perf, 0.0).max(axis=1, keepdims=True)
        if (scales <= 0).any():
            raise LearningError("every app needs a positive observed performance")
        self._power_model.fit(power, mask)
        self._perf_model.fit(perf / scales, mask)
        self._trained = True

    def estimate(
        self,
        corpus: PreferenceMatrix,
        sampled: dict[KnobSetting, tuple[float, float]],
    ) -> EstimatedUtilities:
        """Complete a new application's surface from sparse measurements.

        Args:
            corpus: Supplies the knob-space column order (must match the
                training corpus).
            sampled: Measured ``knob -> (power_w, perf)`` pairs.

        Raises:
            LearningError: before :meth:`train` or with no samples.
        """
        if not self._trained:
            raise LearningError("estimator has not been trained")
        if not sampled:
            raise LearningError("need at least one sampled configuration")
        cols = np.array([corpus.column_of(k) for k in sampled], dtype=int)
        powers = np.array([pw for pw, _ in sampled.values()], dtype=float)
        perfs = np.array([pf for _, pf in sampled.values()], dtype=float)
        scale = float(perfs.max())
        if scale <= 0:
            raise LearningError("sampled performance must include a positive value")
        power_row = self._power_model.fold_in(cols, powers)
        perf_row = self._perf_model.fold_in(cols, perfs / scale) * scale
        return EstimatedUtilities(
            power_w=np.clip(power_row, 0.0, None),
            perf=np.clip(perf_row, 0.0, None),
            sampled_columns=tuple(int(c) for c in cols),
        )
