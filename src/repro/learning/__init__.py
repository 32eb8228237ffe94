"""Online utility learning: sparse sampling + collaborative filtering.

The paper (Section III-A) estimates an application's power and performance
at every knob setting without measuring them all: it measures a sparse
sample online and completes the rest by collaborative filtering against a
matrix of previously-seen applications ("implemented in R" in the paper; in
numpy here).

* :class:`~repro.learning.matrix.PreferenceMatrix` - the app x config
  observation store (power plane + performance plane);
* :class:`~repro.learning.collaborative.AlsFactorizer` - rank-k alternating
  least squares on partially observed matrices, with ridge fold-in of new
  rows;
* :class:`~repro.learning.collaborative.CollaborativeEstimator` - the
  two-plane wrapper policies actually use;
* :mod:`~repro.learning.sampling` - which configurations to measure;
* :mod:`~repro.learning.crossval` - the Fig. 7 calibration of the sampling
  fraction by k-fold cross-validation.
"""

from repro.learning.matrix import PreferenceMatrix
from repro.learning.collaborative import AlsFactorizer, CollaborativeEstimator
from repro.learning.sampling import Sampler, StratifiedSampler
from repro.learning.crossval import CalibrationPoint, calibrate_sampling_fraction

__all__ = [
    "PreferenceMatrix",
    "AlsFactorizer",
    "CollaborativeEstimator",
    "StratifiedSampler",
    "Sampler",
    "CalibrationPoint",
    "calibrate_sampling_fraction",
]
