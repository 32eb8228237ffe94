"""Cluster-manager policy evaluators.

The Fig. 12 experiment replays a day-long cap series. Simulating every
server tick-by-tick for 24 hours is wasteful: within one cap *bin* (the cap
quantized to a grid) every policy reaches a steady state, so the cluster
simulator decomposes the trace into bins, evaluates each (policy, bin) once,
and time-weights the results by bin residency. This module provides the
per-bin evaluator of the equal-split policies,
:func:`evaluate_equal_policy_bin`: an even per-server split, each server
simulated under a server policy (Util-Unaware for Equal(RAPL),
App+Res+ESD-Aware for Equal(Ours)); results are cached per (mix, policy,
per-server cap) since servers with the same mix and cap behave identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.core.simulation import run_mix_experiment
from repro.server.config import ServerConfig
from repro.workloads.mixes import Mix

#: The Fig. 12 strategies.
CLUSTER_POLICY_NAMES = ("equal-rapl", "equal-ours", "consolidation-migration")

#: Server policy each "equal" cluster strategy runs on every server.
_SERVER_POLICY_OF = {
    "equal-rapl": "util-unaware",
    "equal-ours": "app+res+esd-aware",
}


@dataclass(frozen=True)
class BinEvaluation:
    """Steady-state outcome of one (policy, cap-bin) evaluation.

    Attributes:
        aggregate_perf: Sum over all applications of ``Perf/Perf_nocap``.
        cluster_power_w: Mean cluster wall draw.
    """

    aggregate_perf: float
    cluster_power_w: float


def evaluate_equal_policy_bin(
    cluster_policy: str,
    mixes: list[Mix],
    per_server_cap_w: float,
    *,
    config: ServerConfig,
    cache: dict[tuple[int, str, float], tuple[float, float]],
    loaded_powers_w: list[float] | None = None,
    duration_s: float = 40.0,
    warmup_s: float = 15.0,
    seed: int = 0,
    engine: str = "scalar",
) -> BinEvaluation:
    """Evaluate an even-split strategy at one per-server cap.

    Args:
        cluster_policy: ``"equal-rapl"`` or ``"equal-ours"``.
        mixes: One mix per loaded server.
        per_server_cap_w: The loaded servers' share of the cluster cap.
        config: Server hardware.
        cache: Cross-bin memo ``(mix_id, policy, cap) -> (perf, power)``;
            the caller owns it so it persists across bins and shaving
            levels. Entries are engine-independent (the engines are
            bit-identical), so one cache may serve both.
        loaded_powers_w: Uncapped draw per mix, aligned with ``mixes``.
            When the cap is at or above a server's uncapped draw it is
            non-binding: the server runs uncapped (perf 2.0) without
            simulation.
        duration_s / warmup_s / seed: Forwarded to the server experiment.
        engine: Server model implementation forwarded to the experiment.

    Raises:
        ConfigurationError: for unknown strategies.
    """
    try:
        server_policy = _SERVER_POLICY_OF[cluster_policy]
    except KeyError:
        raise ConfigurationError(
            f"unknown equal-split strategy {cluster_policy!r}; "
            f"expected one of {sorted(_SERVER_POLICY_OF)}"
        ) from None
    total_perf = 0.0
    total_power = 0.0
    for idx, mix in enumerate(mixes):
        uncapped_w = loaded_powers_w[idx] if loaded_powers_w is not None else None
        if uncapped_w is not None and per_server_cap_w >= uncapped_w - 1e-9:
            total_perf += float(len(mix.profiles()))
            total_power += uncapped_w
            continue
        key = (mix.mix_id, server_policy, round(per_server_cap_w, 3))
        if key not in cache:
            if per_server_cap_w <= config.p_idle_w:
                # No policy can push a server below its idle draw; the
                # server parks at idle with nothing running. (Per-server
                # caps this deep only arise from extreme shaving.)
                cache[key] = (0.0, config.p_idle_w)
            else:
                result = run_mix_experiment(
                    list(mix.profiles()),
                    server_policy,
                    per_server_cap_w,
                    mix_id=mix.mix_id,
                    config=config,
                    duration_s=duration_s,
                    warmup_s=warmup_s,
                    seed=seed,
                    engine=engine,
                )
                cache[key] = (result.server_throughput, result.mean_wall_power_w)
        perf, power = cache[key]
        total_perf += perf
        total_power += power
    return BinEvaluation(aggregate_perf=total_perf, cluster_power_w=total_power)
