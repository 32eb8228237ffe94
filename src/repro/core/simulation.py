"""Experiment drivers for the single-server evaluations (Figs. 8 and 10).

These wrap the mediator into the exact protocol of Section IV: admit a
Table II mix onto a freshly booted server, run under a fixed cap, and report
each application's throughput normalized to uncapped execution, plus the
power split the allocator settled on.

Both drivers accept a :class:`~repro.faults.plan.FaultPlan` and close with
:func:`verify_cap_invariant`: every timeline tick must either respect the
cap or be explicitly flagged as a breach the resilience layer responded to
(and those flags must agree with the breach counter) - a silent overshoot in
the timeline is a driver bug, not data.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adversary.plan import AdversarySchedule
from repro.core.trust import DefenseConfig
from repro.errors import ConfigurationError, SchedulingError, SimulationError
from repro.core.mediator import PowerMediator
from repro.core.policies import Policy, make_policy
from repro.core.resilience import FaultStats
from repro.observability.trace import TraceBus
from repro.esd.battery import LeadAcidBattery
from repro.faults.plan import FaultPlan
from repro.server.config import ServerConfig, DEFAULT_SERVER_CONFIG
from repro.server.server import SimulatedServer
from repro.workloads.generator import ArrivalSchedule
from repro.workloads.mixes import Mix
from repro.workloads.profiles import WorkloadProfile


def verify_cap_invariant(mediator: PowerMediator) -> int:
    """Post-run audit of the cap invariant over the recorded timeline.

    Every tick must satisfy ``wall <= cap + 1e-6 W`` *unless* the tick is
    flagged as a breach (the emergency throttle fired and the next tick is
    clean - persistent breaches raise during the run). Flagged ticks must
    also agree with the mediator's breach counter, so violations surface
    through accounting instead of hiding in the timeline.

    Returns:
        The number of (flagged) breach ticks.

    Raises:
        SimulationError: on a silent violation or a counter mismatch.
    """
    flagged = 0
    for record in mediator.timeline:
        over = record.wall_w > record.p_cap_w + 1e-6
        if over and not record.breach:
            raise SimulationError(
                f"timeline records wall {record.wall_w:.3f} W over cap "
                f"{record.p_cap_w:.3f} W at t={record.time_s:.2f} s without a "
                "breach flag"
            )
        if record.breach:
            flagged += 1
    counted = mediator.fault_stats.breach_ticks
    if flagged != counted:
        raise SimulationError(
            f"timeline flags {flagged} breach ticks but the fault counter "
            f"recorded {counted}"
        )
    return flagged


@dataclass(frozen=True)
class MixExperimentResult:
    """Outcome of one (mix, policy, cap) run.

    Attributes:
        mix_id: Table II mix number (0 for ad-hoc app lists).
        policy: Policy name.
        p_cap_w: The enforced cap.
        normalized_throughput: Per-app ``Perf/Perf_nocap`` measured over the
            window (the bars of Figs. 8a and 10).
        power_share: Per-app fraction of total allocated application power
            (the splits of Fig. 8b); zeros under temporal coordination.
        server_throughput: Sum of normalized throughputs (the paper's
            "overall server throughput", maximum = number of apps).
        mean_wall_power_w: Average wall power over the window.
        fault_stats: Resilience counters of the run (all-zero on a clean
            run; ``None`` only on results built by older callers).
        metrics: The run's exported metrics JSON (counters, gauges,
            histograms, and the wall-clock ``profile`` section); ``None``
            only on results built by older callers.
    """

    mix_id: int
    policy: str
    p_cap_w: float
    normalized_throughput: dict[str, float]
    power_share: dict[str, float]
    server_throughput: float
    mean_wall_power_w: float
    fault_stats: FaultStats | None = None
    metrics: dict | None = None


def default_battery() -> LeadAcidBattery:
    """The evaluation's Lead-Acid UPS: server-scale, modest C-rates.

    Sized like a small server UPS (~12 V, 7 Ah -> ~300 kJ); at the paper's
    duty-cycle energies (hundreds of joules per period) its capacity never
    binds - the power limits and the ~0.70 round-trip efficiency do, which
    is what produces the paper's 60-40 OFF-ON split at the 80 W cap.
    """
    return LeadAcidBattery(
        capacity_j=300_000.0,
        efficiency=0.70,
        max_charge_w=50.0,
        max_discharge_w=60.0,
        initial_soc=0.0,
    )


def run_mix_experiment(
    apps: list[WorkloadProfile],
    policy: Policy | str,
    p_cap_w: float,
    *,
    mix_id: int = 0,
    config: ServerConfig = DEFAULT_SERVER_CONFIG,
    duration_s: float = 60.0,
    warmup_s: float = 10.0,
    battery: LeadAcidBattery | None = None,
    use_oracle_estimates: bool = False,
    dt_s: float = 0.1,
    seed: int = 0,
    faults: FaultPlan | None = None,
    trace_bus: TraceBus | None = None,
    adversaries: AdversarySchedule | None = None,
    defense: DefenseConfig | None = None,
    engine: str = "vector",
) -> MixExperimentResult:
    """Run one co-location under one policy and cap.

    Args:
        apps: The applications to co-locate (admitted at t=0, back to back).
        policy: A policy instance or its paper name.
        p_cap_w: The server power cap.
        mix_id: Table II number for reporting.
        config: Server parameters (Table I defaults).
        duration_s: Measurement window after warm-up.
        warmup_s: Settling time excluded from the metrics (covers
            calibration latencies and the first duty-cycle periods).
        battery: ESD to install; defaults to :func:`default_battery` when
            the policy needs one.
        use_oracle_estimates: Bypass the learning pipeline (ablations).
        dt_s: Simulation tick.
        seed: Calibration-noise seed (and the fault plan's noise, through
            the plan's own seed).
        faults: Optional fault plan injected during the run.
        trace_bus: Optional observability sink; same seed and arguments
            produce a byte-identical event stream on it.
        adversaries: Optional strategic-tenant schedule; named apps behave
            adversarially (see :mod:`repro.adversary.plan`).
        defense: TrustScorer tunables (defenses default on).
        engine: Server model implementation, ``"vector"`` (the fast
            path: vector models, and fast segments in ``run_for``) or
            ``"scalar"`` (the reference); trace hashes and results are
            bit-identical between the two.

    Raises:
        ConfigurationError: for an empty app list.
    """
    if not apps:
        raise ConfigurationError("need at least one application")
    if isinstance(policy, str):
        policy = make_policy(policy)
    if policy.uses_esd and battery is None:
        battery = default_battery()
    server = SimulatedServer(config, seed=seed, engine=engine)
    mediator = PowerMediator(
        server,
        policy,
        p_cap_w,
        battery=battery,
        use_oracle_estimates=use_oracle_estimates,
        dt_s=dt_s,
        seed=seed,
        faults=faults,
        trace_bus=trace_bus,
        adversaries=adversaries,
        defense=defense,
    )
    for profile in apps:
        # Steady-state runs must not see departures; give everyone ample work.
        mediator.add_application(profile.with_total_work(float("inf")))
    mediator.run_for(warmup_s + duration_s)
    return summarize_mix_run(mediator, apps, warmup_s=warmup_s, mix_id=mix_id)


def summarize_mix_run(
    mediator: PowerMediator,
    apps: list[WorkloadProfile],
    *,
    warmup_s: float,
    mix_id: int = 0,
) -> MixExperimentResult:
    """Summarize a finished mix run into a :class:`MixExperimentResult`.

    Shared by :func:`run_mix_experiment` and the crash-recovery paths
    (supervised and chaos-soak runs), so an interrupted-and-recovered run is
    scored by exactly the same arithmetic as an uninterrupted one. Also
    enforces :func:`verify_cap_invariant`.
    """
    names = [p.name for p in apps]
    throughput = {
        name: mediator.normalized_throughput(name, since_s=warmup_s) for name in names
    }
    plan = mediator.coordinator.plan
    shares: dict[str, float] = {name: 0.0 for name in names}
    if plan is not None and plan.allocation is not None:
        for name in names:
            if name in plan.allocation.apps:
                shares[name] = plan.allocation.share_of(name)
    window = [r for r in mediator.timeline if r.time_s > warmup_s]
    mean_wall = sum(r.wall_w for r in window) / len(window) if window else 0.0
    verify_cap_invariant(mediator)
    return MixExperimentResult(
        mix_id=mix_id,
        policy=mediator.policy.name,
        p_cap_w=mediator.p_cap_w,
        normalized_throughput=throughput,
        power_share=shares,
        server_throughput=sum(throughput.values()),
        mean_wall_power_w=mean_wall,
        fault_stats=mediator.fault_stats,
        metrics=mediator.export_metrics(),
    )


def run_policy_comparison(
    mixes: list[Mix],
    policies: list[str],
    p_cap_w: float,
    *,
    config: ServerConfig = DEFAULT_SERVER_CONFIG,
    duration_s: float = 60.0,
    warmup_s: float = 10.0,
    use_oracle_estimates: bool = False,
    seed: int = 0,
    engine: str = "vector",
) -> dict[int, dict[str, MixExperimentResult]]:
    """The Figs. 8a/10 harness: every mix under every policy at one cap.

    Returns ``{mix_id: {policy_name: result}}``.
    """
    results: dict[int, dict[str, MixExperimentResult]] = {}
    for mix in mixes:
        per_policy: dict[str, MixExperimentResult] = {}
        for name in policies:
            per_policy[name] = run_mix_experiment(
                list(mix.profiles()),
                name,
                p_cap_w,
                mix_id=mix.mix_id,
                config=config,
                duration_s=duration_s,
                warmup_s=warmup_s,
                use_oracle_estimates=use_oracle_estimates,
                seed=seed,
                engine=engine,
            )
        results[mix.mix_id] = per_policy
    return results


@dataclass(frozen=True)
class DynamicExperimentResult:
    """Outcome of a dynamic arrival/departure run (Section IV-C at scale).

    Attributes:
        policy: Policy name.
        p_cap_w: The enforced cap.
        admitted: Applications that were admitted.
        rejected: Arrivals that found no free core group and were turned
            away (the server was fully consolidated).
        completed: Applications that finished within the horizon.
        mean_normalized_throughput: Mean over admitted apps of measured
            ``Perf/Perf_nocap`` between admission and completion (or the
            horizon).
        events: Count of each Accountant event kind observed.
        crashed: Applications force-departed by an injected crash (they are
            *not* in ``completed`` - a crash is not a completion).
        fault_stats: Resilience counters of the run.
        metrics: The run's exported metrics JSON (counters, gauges,
            histograms, per-phase profile), same shape as
            :attr:`MixExperimentResult.metrics`.
    """

    policy: str
    p_cap_w: float
    admitted: tuple[str, ...]
    rejected: tuple[str, ...]
    completed: tuple[str, ...]
    mean_normalized_throughput: float
    events: dict[str, int]
    crashed: tuple[str, ...] = ()
    fault_stats: FaultStats | None = None
    metrics: dict | None = None


def run_dynamic_experiment(
    schedule: "ArrivalSchedule",
    policy: Policy | str,
    p_cap_w: float,
    *,
    horizon_s: float,
    use_oracle_estimates: bool = False,
    seed: int = 0,
    faults: FaultPlan | None = None,
    engine: str = "vector",
) -> DynamicExperimentResult:
    """Replay an arrival schedule against one mediated server.

    Arrivals that do not fit (no free core group) are rejected - a cluster
    scheduler would place them elsewhere; this driver studies one server.
    Departures happen naturally on completion (event E3). All calibration
    and re-allocation overheads are charged. ESD policies get a
    :func:`default_battery`.

    Args:
        schedule: The arrivals to replay (consumed; pass a fresh schedule
            to replay it again).
        policy: Policy instance or paper name.
        p_cap_w: Server power cap.
        horizon_s: Simulation length.
        use_oracle_estimates / seed / faults / engine: As in
            :func:`run_mix_experiment`.
    """
    if horizon_s <= 0:
        raise ConfigurationError("horizon_s must be positive")
    if isinstance(policy, str):
        policy = make_policy(policy)
    server = SimulatedServer(DEFAULT_SERVER_CONFIG, seed=seed, engine=engine)
    mediator = PowerMediator(
        server,
        policy,
        p_cap_w,
        battery=default_battery() if policy.uses_esd else None,
        use_oracle_estimates=use_oracle_estimates,
        seed=seed,
        faults=faults,
    )
    dt_s = mediator.dt_s
    admitted: list[str] = []
    rejected: list[str] = []
    admission_time: dict[str, float] = {}
    while server.now_s < horizon_s - 1e-9:
        for event in schedule.pop_due(server.now_s):
            try:
                mediator.add_application(event.profile)
                admitted.append(event.profile.name)
                admission_time[event.profile.name] = server.now_s
            except SchedulingError:
                rejected.append(event.profile.name)
        next_arrival = schedule.next_time_s()
        run_until = min(
            horizon_s, next_arrival if next_arrival is not None else horizon_s
        )
        # Idle server with nothing to do: jump straight to the next arrival.
        if not mediator.managed_apps():
            server.tick(max(dt_s, run_until - server.now_s))
            continue
        mediator.run_for(max(dt_s, run_until - server.now_s))

    # Crashed apps also land in the finished registry (forced E3) - only a
    # handle that actually ran out of work counts as completed.
    completed = tuple(
        name
        for name in admitted
        if name in mediator._finished  # noqa: SLF001
        and mediator.finished_handle(name).completed
    )
    crashed = tuple(
        name
        for name in admitted
        if name in mediator._finished  # noqa: SLF001
        and not mediator.finished_handle(name).completed
    )
    # Per-app throughput over its *residency* (admission to completion, or
    # to the horizon for apps still running) - averaging over the whole
    # horizon would dilute finished apps with their own absence.
    throughputs = []
    for name in admitted:
        if name in completed:
            handle = mediator.finished_handle(name)
            end = handle.completed_at_s if handle.completed_at_s is not None else horizon_s
        elif name in crashed:
            # Residency ends at the crash; the work it did still counts.
            handle = mediator.finished_handle(name)
            end = server.now_s
        else:
            handle = server.handle_of(name)
            end = server.now_s
        elapsed = max(dt_s, end - admission_time[name])
        throughputs.append(
            (handle.work_done / elapsed) / mediator.peak_rate_of(name)
        )
    # Event counts ride the run's metrics registry (one source of truth for
    # exported counters) and come back out as the result's plain dict.
    for event in mediator.accountant.event_log:
        mediator.metrics.counter(f"events.{type(event).__name__}").inc()
    events = {
        name[len("events.") :]: int(value)
        for name, value in mediator.metrics.counters().items()
        if name.startswith("events.")
    }
    verify_cap_invariant(mediator)
    return DynamicExperimentResult(
        policy=policy.name,
        p_cap_w=p_cap_w,
        admitted=tuple(admitted),
        rejected=tuple(rejected),
        completed=completed,
        mean_normalized_throughput=(
            float(sum(throughputs) / len(throughputs)) if throughputs else 0.0
        ),
        events=events,
        crashed=crashed,
        fault_stats=mediator.fault_stats,
        metrics=mediator.export_metrics(),
    )
