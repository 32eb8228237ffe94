"""Fig. 7 calibration: choosing the online sampling fraction by k-fold CV.

"We use 5-fold cross validation (80% of the applications are used to
estimate the metrics for 20%) to estimate the fraction of configurations to
sample. ... At low sampling rates, the error in power estimation results in
power over-shoot at the server, not adhering to the imposed cap. However,
increasing the sampled fraction reduces error in power estimation, and
consequently the server power draw stays within limit. We see similar trend
in performance as well. Based on this, we fix the online sampling rate at
10%." - Section IV.

The calibration here replays that protocol against the simulated substrate:

1. exhaustively profile every catalog application (the "previously seen"
   corpus);
2. for each fold, train the collaborative estimator on the in-fold apps;
3. for each held-out app, measure only ``fraction`` of the knob space
   (stratified), fold in, and let a budget-constrained chooser pick the
   estimated-best configuration under a per-app power budget;
4. score the *true* power and performance of that choice against the choice
   an exhaustive oracle would make.

The two Fig. 7 series are the fold-averaged ``power ratio`` (true draw of
the chosen config over the budget - above 1.0 is a cap violation) and
``performance ratio`` (true perf of the chosen config over the oracle's).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.surface import grid_for
from repro.errors import ConfigurationError, LearningError
from repro.learning.collaborative import CollaborativeEstimator
from repro.learning.matrix import PreferenceMatrix
from repro.learning.sampling import (
    SAMPLE_PERF_NOISE_REL,
    SAMPLE_POWER_NOISE_W,
    StratifiedSampler,
)
from repro.server.config import ServerConfig
from repro.server.perf_model import PerformanceModel
from repro.server.power_model import PowerModel
from repro.workloads.profiles import WorkloadProfile

#: The chooser's per-application power budget: the equal split of the
#: paper's 100 W scenario.
CHOOSER_BUDGET_W = 15.0

#: Cross-validation folds (5 in the paper).
FOLDS = 5


@dataclass(frozen=True)
class CalibrationPoint:
    """One x-axis point of Fig. 7.

    Attributes:
        fraction: Sampling fraction of the knob space.
        power_ratio: Mean (true power of estimated-best config) / budget;
            above 1.0 means the estimation error caused a cap overshoot.
        worst_power_ratio: The worst case across held-out apps - the
            overshoot Fig. 7 warns about is a tail phenomenon (a single
            under-estimated app breaks the server cap).
        violation_fraction: Fraction of held-out choices whose true power
            exceeded the budget.
        perf_ratio: Mean (true perf of estimated-best config) / (true perf
            of oracle-best config); 1.0 means no loss versus exhaustive
            sampling.
        power_rmse_w: RMSE of the power-surface estimate (watts).
        perf_rmse_rel: RMSE of the performance-surface estimate, relative to
            each app's peak rate.
    """

    fraction: float
    power_ratio: float
    worst_power_ratio: float
    violation_fraction: float
    perf_ratio: float
    power_rmse_w: float
    perf_rmse_rel: float


def build_exhaustive_corpus(
    config: ServerConfig, profiles: list[WorkloadProfile]
) -> PreferenceMatrix:
    """Fully observed preference matrices for ``profiles``.

    This is the "previously seen applications" store: on the paper's system
    it accretes over time; experiments bootstrap it by exhaustive offline
    profiling, which is long enough to be treated as noise-free.

    The exhaustive profile of an app is its response surface
    (:mod:`repro.engine.surface`): the whole knob space characterized once
    per (config, profile), cached, and bitwise equal to the scalar models.
    """
    if not profiles:
        raise ConfigurationError("need at least one profile")
    grid = grid_for(config)
    corpus = PreferenceMatrix(config)
    for profile in profiles:
        surface = grid.surface(profile)
        corpus.add_row(profile.name, power_w=surface.app_power_w, perf=surface.rate)
    return corpus


def _best_under_budget(
    power_row: np.ndarray, perf_row: np.ndarray, budget_w: float
) -> int:
    """Index of the highest-performance config whose power fits the budget.

    Falls back to the lowest-power config when nothing fits (the chooser
    must return something runnable; the overshoot then shows in the score).
    """
    feasible = power_row <= budget_w
    if feasible.any():
        candidates = np.where(feasible, perf_row, -np.inf)
        return int(np.argmax(candidates))
    return int(np.argmin(power_row))


def calibrate_sampling_fraction(
    config: ServerConfig,
    profiles: list[WorkloadProfile],
    fractions: list[float],
    *,
    seed: int = 0,
) -> list[CalibrationPoint]:
    """Run the Fig. 7 cross-validation sweep.

    Each held-out app is measured by a :class:`StratifiedSampler`, with the
    mediator's online measurement noise on every sample (the corpus uses
    long offline profiling and is treated as clean), and the chooser picks
    its best knob under :data:`CHOOSER_BUDGET_W`.

    Args:
        config: Server (knob space + models).
        profiles: The application corpus (the paper uses its full catalog).
        fractions: Sampling fractions to evaluate (the x-axis).
        seed: Controls fold assignment, noise and samplers.

    Raises:
        ConfigurationError: with fewer profiles than folds.
    """
    if len(profiles) < FOLDS:
        raise ConfigurationError(
            f"need at least {FOLDS} profiles for {FOLDS}-fold CV, got {len(profiles)}"
        )
    if not fractions:
        raise ConfigurationError("need at least one fraction to evaluate")
    perf_model = PerformanceModel(config)
    power_model = PowerModel(config, perf_model)
    # Each row is also the held-out app's true surface.
    corpus = build_exhaustive_corpus(config, profiles)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(profiles))
    fold_of = {profiles[int(idx)].name: i % FOLDS for i, idx in enumerate(order)}

    by_name = {p.name: p for p in profiles}
    points: list[CalibrationPoint] = []
    for fraction in fractions:
        power_ratios: list[float] = []
        perf_ratios: list[float] = []
        power_sq_errs: list[float] = []
        perf_sq_errs: list[float] = []
        for fold in range(FOLDS):
            train_names = [n for n in corpus.apps if fold_of[n] != fold]
            test_names = [n for n in corpus.apps if fold_of[n] == fold]
            if not train_names or not test_names:
                continue
            train = PreferenceMatrix(config)
            for name in train_names:
                train.add_row(
                    name, power_w=corpus.power_row(name), perf=corpus.perf_row(name)
                )
            estimator = CollaborativeEstimator(seed=seed + fold)
            estimator.train(train)
            for name in test_names:
                profile = by_name[name]
                sampler = StratifiedSampler(fraction, seed=seed + sum(map(ord, name)))
                sampled = {}
                for knob in sampler.select(config):
                    power = power_model.app_power_w(profile, knob)
                    perf = perf_model.rate(profile, knob)
                    power = max(0.0, power + float(rng.normal(0.0, SAMPLE_POWER_NOISE_W)))
                    perf = max(
                        0.0, perf * (1.0 + float(rng.normal(0.0, SAMPLE_PERF_NOISE_REL)))
                    )
                    sampled[knob] = (power, perf)
                estimate = estimator.estimate(train, sampled)
                true_power = corpus.power_row(name)
                true_perf = corpus.perf_row(name)
                chosen = _best_under_budget(
                    estimate.power_w, estimate.perf, CHOOSER_BUDGET_W
                )
                oracle = _best_under_budget(true_power, true_perf, CHOOSER_BUDGET_W)
                power_ratios.append(true_power[chosen] / CHOOSER_BUDGET_W)
                perf_ratios.append(
                    true_perf[chosen] / true_perf[oracle] if true_perf[oracle] > 0 else 0.0
                )
                power_sq_errs.append(float(np.mean((estimate.power_w - true_power) ** 2)))
                peak = float(true_perf.max())
                perf_sq_errs.append(
                    float(np.mean(((estimate.perf - true_perf) / peak) ** 2))
                )
        if not power_ratios:
            raise LearningError("cross-validation produced no test evaluations")
        points.append(
            CalibrationPoint(
                fraction=fraction,
                power_ratio=float(np.mean(power_ratios)),
                worst_power_ratio=float(np.max(power_ratios)),
                violation_fraction=float(np.mean(np.array(power_ratios) > 1.0)),
                perf_ratio=float(np.mean(perf_ratios)),
                power_rmse_w=float(np.sqrt(np.mean(power_sq_errs))),
                perf_rmse_rel=float(np.sqrt(np.mean(perf_sq_errs))),
            )
        )
    return points
