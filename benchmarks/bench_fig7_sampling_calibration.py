"""Fig. 7: calibrating the online sampling fraction by 5-fold CV.

Regenerates the paper's calibration sweep: power and performance of the
collaboratively estimated allocation, relative to exhaustive sampling, as a
function of the fraction of (f, n, m) settings measured online. The paper
fixes 10% from this curve; our acceptance criteria are the same trends -
estimation error (and with it the risk of cap overshoot) falls, and
achieved performance approaches the oracle, as the fraction grows.
"""

from repro.analysis.reporting import banner, format_table
from repro.learning.crossval import calibrate_sampling_fraction
from repro.workloads.catalog import CATALOG

FRACTIONS = [0.02, 0.05, 0.10, 0.20, 0.40]


def test_fig7_sampling_fraction_calibration(benchmark, config, emit):
    points = benchmark.pedantic(
        calibrate_sampling_fraction,
        args=(config, list(CATALOG.values()), FRACTIONS),
        kwargs=dict(seed=7),
        rounds=1,
        iterations=1,
    )
    rows = [
        [
            f"{p.fraction:.0%}",
            p.power_ratio,
            p.worst_power_ratio,
            p.perf_ratio,
            p.power_rmse_w,
            p.perf_rmse_rel,
        ]
        for p in points
    ]
    emit("\n" + banner("FIG 7: Calibration of online sampling (5-fold CV)"))
    emit(
        format_table(
            [
                "sampled",
                "power/budget",
                "worst power",
                "perf vs oracle",
                "power RMSE [W]",
                "perf RMSE",
            ],
            rows,
        )
    )
    ten = next(p for p in points if p.fraction == 0.10)
    emit(
        f"operating point (paper: 10%): perf {ten.perf_ratio:.1%} of oracle, "
        f"power RMSE {ten.power_rmse_w:.2f} W"
    )
    assert points[0].power_rmse_w > points[-1].power_rmse_w
    assert points[0].perf_rmse_rel > points[-1].perf_rmse_rel
    assert ten.perf_ratio > 0.95
