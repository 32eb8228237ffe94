"""Ablation: what the online learning pipeline costs and buys.

Compares end-to-end policy quality (App+Res-Aware over a mix subset at
100 W) across estimate sources: the true response surfaces (oracle), and
collaborative filtering at several sampling fractions. The gap between
oracle and 10% sampling is the total price of online estimation - including
the RAPL-guard trims that absorb its errors.
"""

import numpy as np
import pytest

from benchmarks._tiny import pick, tiny
from repro.analysis.reporting import banner, format_table
from repro.core.simulation import run_mix_experiment
from repro.learning.sampling import StratifiedSampler
from repro.workloads.mixes import get_mix

MIX_IDS = pick((1, 10, 14), (1,))
CAP_W = 100.0
DURATION_S = pick(15.0, 2.0)
WARMUP_S = pick(6.0, 0.5)
LEARN_RUN_S = pick(21.0, 2.5)


def mean_throughput(config, *, oracle, fraction=0.10, seed=0, sink=None):
    totals = []
    for mix_id in MIX_IDS:
        result = run_mix_experiment(
            list(get_mix(mix_id).profiles()),
            "app+res-aware",
            CAP_W,
            mix_id=mix_id,
            config=config,
            duration_s=DURATION_S,
            warmup_s=WARMUP_S,
            use_oracle_estimates=oracle,
            seed=seed,
        )
        if sink is not None:
            sink.record(result.metrics)
        totals.append(result.server_throughput)
    return float(np.mean(totals))


@pytest.fixture(scope="module")
def sweep(config, bench_metrics):
    rows = [("oracle", mean_throughput(config, oracle=True, sink=bench_metrics))]
    for fraction in (0.02, 0.05, 0.10, 0.25):
        # The sampler fraction is threaded through the mediator; reuse the
        # run_mix_experiment seed parameter to vary noise realizations.
        from repro.core.mediator import PowerMediator  # noqa: F401  (doc pointer)
        from repro.core.policies import make_policy
        from repro.server.server import SimulatedServer

        totals = []
        for mix_id in MIX_IDS:
            server = SimulatedServer(config)
            mediator_policy = make_policy("app+res-aware")
            from repro.core.mediator import PowerMediator

            mediator = PowerMediator(
                server,
                mediator_policy,
                CAP_W,
                sampler=StratifiedSampler(fraction, seed=mix_id),
                seed=mix_id,
            )
            for profile in get_mix(mix_id).profiles():
                mediator.add_application(profile.with_total_work(float("inf")))
            mediator.run_for(LEARN_RUN_S)
            bench_metrics.record(mediator.export_metrics())
            totals.append(mediator.server_objective(since_s=WARMUP_S))
        rows.append((f"learned @ {fraction:.0%}", float(np.mean(totals))))
    return rows


def test_ablation_learning_value(benchmark, config, sweep, emit):
    benchmark.pedantic(
        mean_throughput, kwargs=dict(config=config, oracle=True), rounds=1, iterations=1
    )
    emit("\n" + banner("ABLATION: estimate source vs policy quality (App+Res-Aware)"))
    emit(format_table(["estimates", "mean server throughput"], [list(r) for r in sweep]))
    values = dict(sweep)
    oracle = values["oracle"]
    ten = values["learned @ 10%"]
    emit(
        f"online learning at the paper's 10% operating point retains "
        f"{ten / oracle:.1%} of oracle-quality allocation"
    )
    if not tiny():
        assert ten / oracle > 0.9
        # Starving the sampler must not break anything (the RAPL guard
        # absorbs the estimation error), merely degrade quality.
        assert values["learned @ 2%"] > 0.5 * oracle
