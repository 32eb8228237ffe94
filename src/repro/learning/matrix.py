"""The preference matrices: app x knob-setting observations of power and perf.

"Collaborative filtering uses a matrix to capture power and performance of
previously seen applications for different settings of the power allocation
knobs. In this matrix, each row corresponds to an application, and each
column corresponds to the power allocation knob setting" - Section III-A.

:class:`PreferenceMatrix` is that store, with two planes (power in watts,
performance in work/s) and NaN marking the unobserved entries. The column
order is the canonical knob-space order of
:meth:`repro.server.config.ServerConfig.knob_space`, which is stable across
runs so matrices can be persisted and compared; the columns are read from
the config's shared :class:`~repro.engine.surface.ConfigGrid` rather than
enumerated again per matrix.

Every stored observation is finite and non-negative; NaN is reserved for
"unobserved", so a NaN or infinite measurement is rejected on the way in
(:meth:`PreferenceMatrix.observe`, :meth:`PreferenceMatrix.add_row`) and on
:meth:`PreferenceMatrix.load`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.engine.surface import grid_for
from repro.errors import ConfigurationError, LearningError
from repro.server.config import KnobSetting, ServerConfig

_BAD_OBSERVATION = "observations must be finite and non-negative"


class PreferenceMatrix:
    """Partially observed app x config power and performance matrices.

    Args:
        config: Supplies the canonical knob-space columns.
    """

    def __init__(self, config: ServerConfig) -> None:
        self._config = config
        grid = grid_for(config)
        self._columns: tuple[KnobSetting, ...] = grid.knobs
        # Shared with the grid (and every other matrix on this config):
        # read-only here.
        self._column_index: dict[KnobSetting, int] = grid.index
        self._rows: list[str] = []
        self._row_index: dict[str, int] = {}
        self._power = np.empty((0, len(self._columns)))
        self._perf = np.empty((0, len(self._columns)))

    # ------------------------------------------------------------ structure

    @property
    def config(self) -> ServerConfig:
        return self._config

    @property
    def columns(self) -> list[KnobSetting]:
        """The knob settings, in canonical order (copies are cheap views)."""
        return list(self._columns)

    @property
    def n_columns(self) -> int:
        return len(self._columns)

    @property
    def apps(self) -> list[str]:
        """Row names in insertion order."""
        return list(self._rows)

    def __contains__(self, app: str) -> bool:
        return app in self._row_index

    def column_of(self, knob: KnobSetting) -> int:
        """Column index of a knob setting.

        Raises:
            LearningError: for settings outside the knob space.
        """
        try:
            return self._column_index[knob]
        except KeyError:
            raise LearningError(f"knob {knob} is not a column of this matrix") from None

    # ------------------------------------------------------------ mutation

    def add_app(self, app: str) -> None:
        """Add an empty (all-unobserved) row.

        Raises:
            LearningError: if the app already has a row.
        """
        if app in self._row_index:
            raise LearningError(f"application {app!r} already has a row")
        self._row_index[app] = len(self._rows)
        self._rows.append(app)
        blank = np.full((1, self.n_columns), np.nan)
        self._power = np.vstack([self._power, blank])
        self._perf = np.vstack([self._perf, blank])

    def add_row(self, app: str, *, power_w: np.ndarray, perf: np.ndarray) -> None:
        """Add a fully observed row: one value per column, in column order.

        The bulk form of :meth:`add_app` followed by one :meth:`observe` per
        column, validated up front so a rejected row leaves the matrix as
        it was.

        Raises:
            LearningError: if the app already has a row, or a plane does
                not hold exactly one value per column.
            ConfigurationError: for non-finite or negative observations.
        """
        power_w = np.asarray(power_w, dtype=np.float64)
        perf = np.asarray(perf, dtype=np.float64)
        for plane in (power_w, perf):
            if plane.shape != (self.n_columns,):
                raise LearningError(
                    f"row of {app!r} must hold {self.n_columns} values, "
                    f"got shape {plane.shape}"
                )
            if not (np.isfinite(plane) & (plane >= 0)).all():
                raise ConfigurationError(_BAD_OBSERVATION)
        self.add_app(app)
        self._power[-1] = power_w
        self._perf[-1] = perf

    def observe(
        self, app: str, knob: KnobSetting, *, power_w: float, perf: float
    ) -> None:
        """Record one measurement (overwrites a prior one at the same cell).

        Raises:
            LearningError: for unknown apps/knobs.
            ConfigurationError: for non-finite or negative observations.
        """
        if not (math.isfinite(power_w) and math.isfinite(perf)) or power_w < 0 or perf < 0:
            raise ConfigurationError(_BAD_OBSERVATION)
        row = self._row_of(app)
        col = self.column_of(knob)
        self._power[row, col] = power_w
        self._perf[row, col] = perf

    # ------------------------------------------------------------- queries

    def power_rows(self) -> np.ndarray:
        """Copy of the power plane, shape ``(apps, configs)``, NaN = missing."""
        return self._power.copy()

    def perf_rows(self) -> np.ndarray:
        """Copy of the performance plane."""
        return self._perf.copy()

    def observed_mask(self) -> np.ndarray:
        """Boolean mask of cells observed in *both* planes."""
        return ~(np.isnan(self._power) | np.isnan(self._perf))

    def power_row(self, app: str) -> np.ndarray:
        """Copy of one app's power row (NaN = missing)."""
        return self._power[self._row_of(app)].copy()

    def perf_row(self, app: str) -> np.ndarray:
        """Copy of one app's performance row."""
        return self._perf[self._row_of(app)].copy()

    def _row_of(self, app: str) -> int:
        try:
            return self._row_index[app]
        except KeyError:
            raise LearningError(f"application {app!r} has no row") from None

    # ---------------------------------------------------------- persistence
