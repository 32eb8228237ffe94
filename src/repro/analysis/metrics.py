"""Aggregation of experiment results into the paper's reported quantities."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError
from repro.core.resilience import FaultStats
from repro.core.simulation import MixExperimentResult

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.persistence.supervisor import RecoveryStats

#: Simulated seconds one cold relearn costs: the ~800 ms re-allocation
#: latency the paper measures on its server (Fig. 11a), charged once per
#: application calibration that a checkpoint restore made unnecessary.
RELEARN_COST_S = 0.8

#: The policy :func:`summarize_policies` reports every speedup against.
SPEEDUP_BASELINE = "util-unaware"


@dataclass(frozen=True)
class PolicySummary:
    """Cross-mix aggregate for one policy at one cap.

    Attributes:
        policy: Policy name.
        p_cap_w: The cap.
        mean_server_throughput: Mean over mixes of the per-mix sum of
            normalized per-app throughputs (the paper's "overall server
            throughput").
        speedup_vs_baseline: Ratio of this policy's mean to the named
            baseline's mean (filled by :func:`summarize_policies`).
        mean_power_split: Mean (smaller-share, larger-share) split between
            the two applications when running spatially (the paper's
            "46%-54% split, on average").
    """

    policy: str
    p_cap_w: float
    mean_server_throughput: float
    speedup_vs_baseline: float
    mean_power_split: tuple[float, float]


def mean_server_throughput(results: dict[int, MixExperimentResult]) -> float:
    """Mean server throughput over a ``{mix_id: result}`` map."""
    if not results:
        raise ConfigurationError("no results to aggregate")
    return float(np.mean([r.server_throughput for r in results.values()]))


def power_split_stats(
    results: dict[int, MixExperimentResult],
) -> tuple[float, float]:
    """Mean (low, high) power split over mixes that ran spatially.

    Mixes under temporal coordination (all shares zero) are skipped; if no
    mix ran spatially the result is ``(0.5, 0.5)`` by convention.
    """
    lows: list[float] = []
    highs: list[float] = []
    for result in results.values():
        shares = sorted(result.power_share.values())
        if len(shares) == 2 and sum(shares) > 0:
            lows.append(shares[0])
            highs.append(shares[1])
    if not lows:
        return (0.5, 0.5)
    return (float(np.mean(lows)), float(np.mean(highs)))


@dataclass(frozen=True)
class ResilienceSummary:
    """Condensed fault/recovery accounting for one mediated run.

    Attributes:
        fault_count: Fault episodes raised (injected or detected).
        recovered_count: Episodes that closed (the rest were still open at
            the end of the run).
        breach_ticks: Ticks whose true wall power exceeded the cap.
        emergency_throttles: Times the emergency floor-throttle fired.
        actuation_retries: Knob-write retries performed.
        actuation_escalations: Retry sequences that ended in suspension.
        degraded_ticks: Ticks spent in degraded telemetry mode.
        degraded_fraction: ``degraded_ticks`` over the run's total ticks
            (``0.0`` when ``total_ticks`` is unknown or zero).
        crashes: Unexpected application exits.
        mttr_s: Mean time to repair over closed episodes, or ``None`` when
            nothing closed.
    """

    fault_count: int
    recovered_count: int
    breach_ticks: int
    emergency_throttles: int
    actuation_retries: int
    actuation_escalations: int
    degraded_ticks: int
    degraded_fraction: float
    crashes: int
    mttr_s: float | None


def summarize_resilience(
    stats: FaultStats, *, total_ticks: int | None = None
) -> ResilienceSummary:
    """Condense a run's :class:`FaultStats` into the reported counters.

    Args:
        stats: The mediator's fault ledger (``mediator.fault_stats`` or the
            ``fault_stats`` field of an experiment result).
        total_ticks: Run length in ticks, for ``degraded_fraction``; pass
            ``len(mediator.timeline)`` when available.
    """
    recovered = sum(1 for ep in stats.episodes if not ep.open)
    fraction = (
        stats.degraded_ticks / total_ticks if total_ticks else 0.0
    )
    return ResilienceSummary(
        fault_count=len(stats.episodes),
        recovered_count=recovered,
        breach_ticks=stats.breach_ticks,
        emergency_throttles=stats.emergency_throttles,
        actuation_retries=stats.actuation_retries,
        actuation_escalations=stats.actuation_escalations,
        degraded_ticks=stats.degraded_ticks,
        degraded_fraction=fraction,
        crashes=stats.crashes,
        mttr_s=stats.mttr_s(),
    )


@dataclass(frozen=True)
class RecoverySummary:
    """Condensed crash-recovery accounting for one supervised run.

    Attributes:
        restarts: Warm restarts performed (kills + hangs).
        hangs_detected: Restarts triggered by the tick deadline.
        downtime_ticks: Ticks re-executed from the journal after restores.
        downtime_s: The same, in simulated seconds.
        journal_records_replayed: Journal records replayed in total.
        checkpoints_written: Snapshots written (including post-recovery).
        samples_restored: Calibration samples restored from checkpoints
            instead of being re-measured online.
        cold_relearns_avoided: Per-application calibrations that restore
            made unnecessary.
        relearn_cost_avoided_s: Simulated seconds of calibration +
            re-allocation latency saved by restoring learning state instead
            of relearning from scratch.
    """

    restarts: int
    hangs_detected: int
    downtime_ticks: int
    downtime_s: float
    journal_records_replayed: int
    checkpoints_written: int
    samples_restored: int
    cold_relearns_avoided: int
    relearn_cost_avoided_s: float


def summarize_recovery(
    stats: "RecoveryStats",
    *,
    dt_s: float = 0.1,
) -> RecoverySummary:
    """Condense a supervisor's :class:`~repro.persistence.supervisor.RecoveryStats`.

    Each avoided relearn saves :data:`RELEARN_COST_S`.

    Args:
        stats: ``supervisor.stats`` after a run.
        dt_s: Tick length, to express downtime in simulated seconds.
    """
    return RecoverySummary(
        restarts=stats.restarts,
        hangs_detected=stats.hangs_detected,
        downtime_ticks=stats.downtime_ticks,
        downtime_s=stats.downtime_ticks * dt_s,
        journal_records_replayed=stats.journal_records_replayed,
        checkpoints_written=stats.checkpoints_written,
        samples_restored=stats.samples_restored,
        cold_relearns_avoided=stats.cold_relearns_avoided,
        relearn_cost_avoided_s=stats.cold_relearns_avoided * RELEARN_COST_S,
    )


def summarize_policies(
    comparison: dict[int, dict[str, MixExperimentResult]],
) -> dict[str, PolicySummary]:
    """Condense a ``run_policy_comparison`` output into per-policy summaries,
    with speedups against :data:`SPEEDUP_BASELINE`.

    Args:
        comparison: ``{mix_id: {policy: result}}``.

    Raises:
        ConfigurationError: when the baseline is missing from the results.
    """
    baseline = SPEEDUP_BASELINE
    if not comparison:
        raise ConfigurationError("empty comparison")
    policies = sorted(next(iter(comparison.values())))
    if baseline not in policies:
        raise ConfigurationError(f"baseline {baseline!r} not in results {policies}")
    per_policy: dict[str, dict[int, MixExperimentResult]] = {
        policy: {mid: comparison[mid][policy] for mid in comparison} for policy in policies
    }
    base_mean = mean_server_throughput(per_policy[baseline])
    caps = {r.p_cap_w for results in per_policy.values() for r in results.values()}
    if len(caps) != 1:
        raise ConfigurationError(f"results mix several caps: {sorted(caps)}")
    cap = caps.pop()
    return {
        policy: PolicySummary(
            policy=policy,
            p_cap_w=cap,
            mean_server_throughput=mean_server_throughput(per_policy[policy]),
            speedup_vs_baseline=mean_server_throughput(per_policy[policy]) / base_mean,
            mean_power_split=power_split_stats(per_policy[policy]),
        )
        for policy in policies
    }
