"""Command-line interface: run the paper's experiments from a shell.

Subcommands:

* ``mix``       - one co-location under one policy and cap;
* ``compare``   - several policies over several mixes (Fig. 8/10 style);
* ``utility``   - an application's utility curve and resource preferences;
* ``calibrate`` - the Fig. 7 sampling-fraction sweep;
* ``dynamic``   - a Poisson arrival stream against one server;
* ``serve``     - long-running service mode (open-loop streaming ingest);
* ``cluster``   - the Fig. 12 peak-shaving comparison;
* ``hierarchy`` - datacenter -> PDU -> rack budget-tree mediation;
* ``place``     - the power-aware job-placement extension;
* ``zones``     - the hardware powercap-zone extension;
* ``trace``     - inspect a recorded trace (``trace summarize RUN.jsonl``).

Examples::

    python -m repro mix --mix 10 --cap 100
    python -m repro mix --mix 10 --cap 80 --faults default
    python -m repro mix --mix 10 --cap 80 --trace-out run.jsonl --metrics-out run-metrics.json
    python -m repro trace summarize run.jsonl
    python -m repro compare --cap 80 --mixes 1,10,14 --policies util-unaware,app+res-aware
    python -m repro utility --app stream
    python -m repro serve --ticks 2000 --rate 0.5 --burst 60:90:30 --cap-levels 90,110
    python -m repro serve --ticks 2000 --kills 2 --churn 6
    python -m repro cluster --fast
    python -m repro cluster --fast --loss 0.2 --partition 3:8:1+2 --outage 0:6:10
    python -m repro cluster --chaos 5
    python -m repro hierarchy --fanouts 3,4 --loss 0.2 --outage 0:20:60
    python -m repro hierarchy --fanouts 2,3,4 --chaos 5
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro.analysis.metrics import summarize_recovery, summarize_resilience
from repro.analysis.reporting import banner, format_series, format_table
from repro.core.policies import POLICY_NAMES
from repro.core.simulation import (
    run_dynamic_experiment,
    run_mix_experiment,
    run_policy_comparison,
    summarize_mix_run,
)
from repro.core.utility import CandidateSet, app_utility_curve, resource_marginal_utilities
from repro.engine import ENGINE_KINDS
from repro.adversary.plan import ADVERSARY_KINDS
from repro.errors import (
    AdversaryError,
    ChaosError,
    ConfigurationError,
    FaultError,
    NetworkError,
    ObservabilityError,
    PersistenceError,
    ServiceError,
)
from repro.faults import FaultPlan, default_fault_plan
from repro.netsim import NetConfig, PartitionWindow
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import (
    ADVERSARY_KINDS as ADVERSARY_TRACE_KINDS,
    CONTROL_PLANE_KINDS,
    HIERARCHY_KINDS,
    NULL_TRACE_BUS,
    TraceBus,
    read_trace,
    summarize_trace,
    verify_trace,
    write_trace,
)
from repro.cluster.cluster import (
    ClusterSimulator,
    NodeOutage,
    outages_from_fault_plan,
    validate_outages,
)
from repro.learning.crossval import calibrate_sampling_fraction
from repro.server.config import ServerConfig
from repro.service import BACKPRESSURE_POLICIES
from repro.workloads.catalog import CATALOG, application_names, get_application
from repro.workloads.generator import ArrivalEvent, ArrivalSchedule
from repro.workloads.mixes import all_mixes, get_mix
from repro.workloads.traces import ClusterPowerTrace


def _parse_list(text: str, flag: str, convert=str) -> list:
    """Parse the comma list ``--<flag> A,B,...``; blank items are skipped.

    A malformed item, or a given list with no item, raises
    :class:`ConfigurationError` naming the flag, which :func:`main` turns
    into the one-line exit-2 contract."""
    try:
        items = [convert(part.strip()) for part in text.split(",") if part.strip()]
        if items or not text:
            return items
    except ValueError:
        pass
    raise ConfigurationError(
        f"--{flag} expects comma-separated {convert.__name__} values, got {text!r}"
    )


def _fail(exc: Exception) -> int:
    """The CLI's one-line failure contract: ``error: <reason>`` on stderr,
    exit status 2, never a traceback. Every subcommand shares this path."""
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _load_fault_plan(arg: str | None) -> FaultPlan | None:
    """Resolve the ``--faults`` argument: a JSON plan path, or the literal
    ``default`` for the built-in demonstration plan.

    A bad plan raises :class:`FaultError`, which :func:`main` turns into
    the one-line exit-2 contract via :func:`_fail`."""
    if arg is None:
        return None
    if arg == "default":
        return default_fault_plan()
    return FaultPlan.load(arg)


def _parse_partition(spec: str) -> PartitionWindow:
    """Parse a ``START:END:N1+N2`` partition window ([start, end) steps)."""
    try:
        start_s, end_s, nodes_s = spec.split(":")
        start, end = int(start_s), int(end_s)
        nodes = tuple(int(n) for n in nodes_s.split("+") if n)
    except ValueError:
        raise NetworkError(
            f"--partition expects START:END:N1+N2..., got {spec!r}"
        ) from None
    return PartitionWindow(start_step=start, end_step=end, nodes=nodes)


def _parse_outage(spec: str) -> NodeOutage:
    """Parse a ``SERVER:START:END`` outage window ([start, end) steps)."""
    try:
        server_s, start_s, end_s = spec.split(":")
        server, start, end = int(server_s), int(start_s), int(end_s)
    except ValueError:
        raise NetworkError(
            f"--outage expects SERVER:START:END, got {spec!r}"
        ) from None
    try:
        return NodeOutage(server=server, start_step=start, end_step=end)
    except ConfigurationError as exc:
        raise NetworkError(f"--outage {spec!r}: {exc}") from None


def _print_resilience(fault_stats, total_ticks: int) -> None:
    summary = summarize_resilience(fault_stats, total_ticks=total_ticks)
    mttr = "-" if summary.mttr_s is None else f"{summary.mttr_s:.2f} s"
    print(
        f"faults {summary.fault_count} ({summary.recovered_count} recovered, "
        f"MTTR {mttr}); breach ticks {summary.breach_ticks}; "
        f"emergency throttles {summary.emergency_throttles}; "
        f"retries {summary.actuation_retries} "
        f"({summary.actuation_escalations} escalated); "
        f"degraded telemetry {summary.degraded_fraction:.0%} of run; "
        f"crashes {summary.crashes}"
    )


def _print_recovery(stats) -> None:
    summary = summarize_recovery(stats)
    print(
        f"recovery: {summary.restarts} restarts "
        f"({summary.hangs_detected} hangs); "
        f"downtime {summary.downtime_ticks} ticks ({summary.downtime_s:.1f} s); "
        f"journal replayed {summary.journal_records_replayed} records; "
        f"checkpoints {summary.checkpoints_written}; "
        f"relearn avoided {summary.cold_relearns_avoided} apps / "
        f"{summary.samples_restored} samples "
        f"(~{summary.relearn_cost_avoided_s:.1f} s saved)"
    )


def _write_observability(args: argparse.Namespace, bus: TraceBus | None, metrics: dict | None) -> None:
    """Honour ``--trace-out`` / ``--metrics-out`` after a run completes."""
    if getattr(args, "trace_out", None) and bus is not None:
        digest = write_trace(args.trace_out, bus)
        print(f"trace: {len(bus.events)} events -> {args.trace_out} (sha256 {digest})")
    if getattr(args, "metrics_out", None) and metrics is not None:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(metrics, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"metrics -> {args.metrics_out}")


#: ``mix`` flags that mean nothing to a resumed run, with the reason.
_RESUME_REJECTED_FLAGS = {
    "checkpoint_dir": "the resumed run is not supervised",
    "faults": "the fault plan comes from the checkpoint's recipe",
}


def cmd_mix(args: argparse.Namespace) -> int:
    mix = get_mix(args.mix)
    cap, policy = args.cap, args.policy
    recovery_stats = None
    bus = TraceBus() if args.trace_out else None
    if args.resume is not None:
        from repro.persistence import RunRecipe, read_checkpoint, restore_mediator

        for dest, reason in _RESUME_REJECTED_FLAGS.items():
            if getattr(args, dest) is not None:
                raise ConfigurationError(
                    f"--{dest.replace('_', '-')} cannot be combined with --resume: {reason}"
                )
        doc = read_checkpoint(args.resume)
        mediator = restore_mediator(doc)
        names = sorted(p.name for p in mix.profiles())
        if mediator.managed_apps() != names:
            raise ConfigurationError(
                f"--mix {args.mix} runs {names}, but the checkpoint's mediator "
                f"manages {mediator.managed_apps()}"
            )
        # The banner and the resilience line describe the checkpointed run.
        recipe = RunRecipe.from_dict(doc["recipe"], where="checkpoint.recipe")
        cap, policy, faults = recipe.p_cap_w, recipe.policy, recipe.faults
        if bus is not None:
            # The trace covers the resumed stretch only; events before the
            # checkpoint belong to the run that wrote it.
            mediator.attach_trace_bus(bus)
        total_s = args.warmup + args.duration
        remaining_s = total_s - mediator.server.now_s
        print(
            f"resumed from {args.resume} at tick {doc['tick']} "
            f"(t={doc['sim_time_s']:.1f} s); {max(0.0, remaining_s):.1f} s to go"
        )
        if remaining_s > 0:
            mediator.run_for(remaining_s)
        result = summarize_mix_run(
            mediator, list(mix.profiles()), warmup_s=args.warmup, mix_id=args.mix
        )
    elif args.checkpoint_dir is not None:
        from repro.chaos import mix_recipe
        from repro.persistence import Supervisor

        faults = _load_fault_plan(args.faults)
        recipe, script = mix_recipe(
            list(mix.profiles()),
            args.policy,
            args.cap,
            duration_s=args.duration,
            warmup_s=args.warmup,
            use_oracle_estimates=args.oracle,
            seed=args.seed,
            faults=faults,
            engine=args.engine,
        )
        supervisor = Supervisor(
            recipe,
            script,
            args.checkpoint_dir,
            checkpoint_every_ticks=args.checkpoint_every,
            trace_bus=bus,
        )
        mediator = supervisor.run()
        recovery_stats = supervisor.stats
        result = summarize_mix_run(
            mediator, list(mix.profiles()), warmup_s=args.warmup, mix_id=args.mix
        )
    else:
        faults = _load_fault_plan(args.faults)
        result = run_mix_experiment(
            list(mix.profiles()),
            args.policy,
            args.cap,
            mix_id=args.mix,
            duration_s=args.duration,
            warmup_s=args.warmup,
            use_oracle_estimates=args.oracle,
            seed=args.seed,
            faults=faults,
            trace_bus=bus,
            engine=args.engine,
        )
    print(banner(f"{mix} @ {cap:.0f} W under {policy}"))
    rows = [
        [name, result.normalized_throughput[name], result.power_share[name]]
        for name in sorted(result.normalized_throughput)
    ]
    print(format_table(["app", "Perf/Perf_nocap", "power share"], rows))
    print(
        f"server throughput {result.server_throughput:.3f}; "
        f"mean wall power {result.mean_wall_power_w:.1f} W"
    )
    if faults is not None and result.fault_stats is not None:
        _print_resilience(
            result.fault_stats, total_ticks=int(round(args.duration / 0.1))
        )
    if recovery_stats is not None:
        _print_recovery(recovery_stats)
    _write_observability(args, bus, result.metrics)
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    import tempfile

    from repro.chaos import run_chaos_soak

    mix = get_mix(args.mix)
    faults = _load_fault_plan(args.faults)
    seeds = list(range(args.runs))
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as scratch:
        workdir = args.workdir if args.workdir is not None else scratch
        soak = run_chaos_soak(
            list(mix.profiles()),
            args.policy,
            args.cap,
            workdir=workdir,
            seeds=seeds,
            kills_per_run=args.kills,
            mix_id=args.mix,
            duration_s=args.duration,
            warmup_s=args.warmup,
            use_oracle_estimates=args.oracle,
            seed=args.seed,
            faults=faults,
            checkpoint_every_ticks=args.checkpoint_every,
            safe_hold_ticks=args.safe_hold,
            tear_journal_bytes_on_crash=args.tear_bytes,
            utility_tolerance=args.tolerance,
            trace=args.trace,
        )
    print(banner(f"chaos soak: {mix} @ {args.cap:.0f} W under {args.policy}"))
    rows = [
        [
            seed,
            ",".join(str(t) for t in run.kill_ticks) or "-",
            run.recovery.restarts,
            run.recovery.downtime_ticks,
            f"{run.utility_gap:.2%}",
            {True: "yes", False: "NO", None: "n/a"}[run.timeline_identical],
            "n/a"
            if run.trace_hash is None
            else ("yes" if run.trace_hash == run.baseline_trace_hash else "NO"),
        ]
        for seed, run in zip(seeds, soak.runs)
    ]
    print(
        format_table(
            [
                "seed",
                "kill ticks",
                "restarts",
                "downtime",
                "util gap",
                "bit-identical",
                "trace-stitched",
            ],
            rows,
        )
    )
    print(
        f"{len(soak.runs)} runs survived: {soak.total_restarts} restarts, "
        f"{soak.total_downtime_ticks} downtime ticks, "
        f"max utility gap {soak.max_utility_gap:.2%} "
        f"(tolerance {args.tolerance:.0%})"
    )
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(soak.metrics(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"metrics -> {args.metrics_out}")
    return 0


def cmd_adversary(args: argparse.Namespace) -> int:
    from repro.chaos import run_adversary_soak

    # An empty seed list (--soak below 1) fails inside the soak.
    soak = run_adversary_soak(
        kinds=ADVERSARY_KINDS if args.kind == "all" else (args.kind,),
        seeds=[args.seed] if args.soak == 1 else list(range(args.soak)),
        mix_id=args.mix,
        compare_undefended=not args.no_undefended,
    )
    mix = get_mix(args.mix)
    seeds_note = f"seeds 0..{args.soak - 1}" if args.soak > 1 else f"seed {args.seed}"
    print(banner(f"adversary defense: {mix}, {seeds_note}"))
    rows = []
    for run in soak.runs:
        scenario = run.scenario
        delta = "n/a"
        if run.undefended is not None:
            delta = f"{min(run.defended.normalized_throughput[a] - run.undefended.normalized_throughput[a] for a in run.honest_retention):+.4f}"
        rows.append(
            [
                scenario.kind,
                scenario.policy,
                f"{scenario.p_cap_w:.0f}",
                ",".join(run.attackers),
                f"{run.worst_detection_latency_ticks} <= {scenario.detection_bound_ticks}",
                f"{run.worst_retention:.3f} >= {scenario.retention_floor}",
                delta,
            ]
        )
    print(
        format_table(
            ["kind", "policy", "cap W", "attacker", "detect ticks", "retention", "defense delta"],
            rows,
        )
    )
    print(
        f"{len(soak.runs)} comparisons survived: every attacker quarantined "
        f"within bound, false-positive rate {soak.false_positive_rate:.0%}, "
        f"worst honest retention {soak.min_honest_retention:.3f}"
    )
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(soak.metrics(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"metrics -> {args.metrics_out}")
    return 0


def _parse_burst(spec: str):
    """Parse a ``START:END:MULT`` overload burst window ([start, end) s)."""
    from repro.workloads import BurstWindow

    try:
        start_s, end_s, mult_s = spec.split(":")
        return BurstWindow(float(start_s), float(end_s), float(mult_s))
    except ValueError:
        raise ConfigurationError(
            f"--burst expects START:END:MULT, got {spec!r}"
        ) from None


def cmd_serve(args: argparse.Namespace) -> int:
    import tempfile
    from pathlib import Path

    from repro.chaos import run_service_soak
    from repro.service import MediatorService, ServiceConfig

    cap_levels = tuple(_parse_list(args.cap_levels, "cap-levels", float))
    config = ServiceConfig(
        policy=args.policy,
        p_cap_w=args.cap,
        use_oracle_estimates=args.oracle,
        seed=args.seed,
        rate_per_s=args.rate,
        clients=args.clients,
        diurnal_amplitude=args.diurnal_amplitude,
        diurnal_period_s=args.diurnal_period,
        bursts=tuple(_parse_burst(spec) for spec in (args.burst or [])),
        work_scale=args.work_scale,
        ingest_capacity=args.capacity,
        backpressure=args.backpressure,
        cap_levels=cap_levels,
        cap_change_every_s=args.cap_every,
        checkpoint_every_ticks=args.checkpoint_every,
    )
    if args.ticks <= 0:
        raise ConfigurationError(f"--ticks must be positive, got {args.ticks}")
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as scratch:
        workdir = Path(args.workdir) if args.workdir is not None else Path(scratch)
        if args.kills > 0 or args.churn > 0:
            report = run_service_soak(
                config,
                workdir,
                total_ticks=args.ticks,
                kills=args.kills,
                churn_events=args.churn,
                chaos_seed=args.chaos_seed,
                tear_journal_bytes=args.tear_bytes,
            )
            counters = dict(report.counters)
            trace_hash = report.trace_hash
            print(
                banner(
                    f"service soak: {args.ticks} ticks @ {config.p_cap_w:.0f} W "
                    f"under {config.policy}"
                )
            )
            kill_list = ",".join(str(t) for t in report.kill_ticks) or "-"
            print(
                f"kills at {kill_list}; {report.restarts} warm restarts, "
                f"{report.replayed_ticks} ticks replayed"
            )
            print(
                f"shed {report.shed_commands} regular commands (0 cap-safety); "
                f"replayed {report.replayed_deliveries} deliveries to "
                f"reconnecting clients"
            )
            print(f"stitched trace == uninterrupted baseline; sha256 {trace_hash}")
        else:
            service = MediatorService(config, workdir)
            service.run_for_ticks(args.ticks)
            service.close()
            counters = dict(service.metrics.counters())
            trace_hash = service.content_hash()
            print(
                banner(
                    f"service: {args.ticks} ticks @ {config.p_cap_w:.0f} W "
                    f"under {config.policy}"
                )
            )
            print(f"trace sha256 {trace_hash}")
        print(
            f"ingest: {counters.get('service.ingest.accepted', 0):.0f} accepted, "
            f"{counters.get('service.ingest.deferred', 0):.0f} deferred, "
            f"{counters.get('service.ingest.rejected', 0):.0f} rejected, "
            f"{counters.get('service.ingest.shed', 0):.0f} shed"
        )
        print(
            f"jobs: {counters.get('service.admit.admitted', 0):.0f} admitted, "
            f"{counters.get('service.jobs.completed', 0):.0f} completed; "
            f"caps applied {counters.get('service.commands.cap_applied', 0):.0f}; "
            f"deliveries {counters.get('service.sessions.deliveries', 0):.0f}"
        )
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                json.dump(counters, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"metrics -> {args.metrics_out}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    mixes = (
        [get_mix(i) for i in _parse_list(args.mixes, "mixes", int)]
        if args.mixes
        else all_mixes()
    )
    policies = (
        _parse_list(args.policies, "policies")
        if args.policies
        else ["util-unaware", "app+res-aware"]
    )
    results = run_policy_comparison(
        mixes,
        policies,
        args.cap,
        duration_s=args.duration,
        warmup_s=args.warmup,
        use_oracle_estimates=args.oracle,
        seed=args.seed,
        engine=args.engine,
    )
    print(banner(f"{len(mixes)} mixes @ {args.cap:.0f} W"))
    rows = [
        [mid] + [results[mid][p].server_throughput for p in policies]
        for mid in sorted(results)
    ]
    means = [
        float(np.mean([results[mid][p].server_throughput for mid in results]))
        for p in policies
    ]
    rows.append(["avg"] + means)
    print(format_table(["mix"] + policies, rows))
    base = means[0]
    if base > 0:
        gains = ", ".join(f"{p}: {m / base:.3f}x" for p, m in zip(policies, means))
        print(f"relative to {policies[0]}: {gains}")
    return 0


def cmd_utility(args: argparse.Namespace) -> int:
    profile = get_application(args.app)
    config = ServerConfig()
    cset = CandidateSet.from_models(profile, config)
    budgets = [float(b) for b in np.arange(np.floor(cset.min_power_w), 26.0, 1.0)]
    curve = app_utility_curve(cset, budgets)
    print(banner(f"utility of {args.app}"))
    print(format_series(args.app, budgets, list(curve.relative_perf), x_label="W"))
    utilities = resource_marginal_utilities(profile, config)
    print(
        "marginal utility per watt: "
        + ", ".join(f"{k}: {v:.4f}" for k, v in utilities.items())
    )
    print(
        f"demand {cset.max_power_w:.1f} W, minimum {cset.min_power_w:.1f} W, "
        f"class {profile.wclass}"
    )
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    fractions = _parse_list(args.fractions, "fractions", float)
    points = calibrate_sampling_fraction(
        ServerConfig(), list(CATALOG.values()), fractions, seed=args.seed
    )
    print(banner("online sampling calibration (Fig. 7)"))
    rows = [
        [f"{p.fraction:.0%}", p.power_rmse_w, p.perf_ratio, p.power_ratio]
        for p in points
    ]
    print(
        format_table(
            ["sampled", "power RMSE [W]", "perf vs oracle", "power/budget"], rows
        )
    )
    return 0


def cmd_dynamic(args: argparse.Namespace) -> int:
    schedule = ArrivalSchedule.poisson(
        rate_per_s=args.rate, horizon_s=args.horizon * 0.8, seed=args.seed
    )
    schedule = ArrivalSchedule(
        [
            ArrivalEvent(e.time_s, e.profile.with_total_work(args.work))
            for e in schedule.events
        ]
    )
    faults = _load_fault_plan(args.faults)
    result = run_dynamic_experiment(
        schedule,
        args.policy,
        args.cap,
        horizon_s=args.horizon,
        use_oracle_estimates=args.oracle,
        seed=args.seed,
        faults=faults,
        engine=args.engine,
    )
    print(banner(f"dynamic arrivals @ {args.cap:.0f} W under {args.policy}"))
    print(f"admitted  {len(result.admitted)}: {', '.join(result.admitted) or '-'}")
    print(f"rejected  {len(result.rejected)}: {', '.join(result.rejected) or '-'}")
    print(f"completed {len(result.completed)}: {', '.join(result.completed) or '-'}")
    if result.crashed:
        print(f"crashed   {len(result.crashed)}: {', '.join(result.crashed)}")
    print(f"mean normalized throughput {result.mean_normalized_throughput:.3f}")
    print(f"events: {result.events}")
    if faults is not None and result.fault_stats is not None:
        _print_resilience(
            result.fault_stats, total_ticks=int(round(args.horizon / 0.1))
        )
    return 0


def cmd_place(args: argparse.Namespace) -> int:
    from repro.cluster.scheduler import PLACEMENT_POLICIES, PowerAwareScheduler

    caps = _parse_list(args.caps, "caps", float)
    jobs = [get_application(n) for n in _parse_list(args.jobs, "jobs")]
    rows = []
    objectives = {}
    for strategy in PLACEMENT_POLICIES:
        scheduler = PowerAwareScheduler(ServerConfig(), caps, strategy=strategy)
        for job in jobs:
            scheduler.place(job)
        objectives[strategy] = scheduler.cluster_objective()
        layout = "; ".join(
            f"s{slot.index}({slot.p_cap_w:.0f}W): "
            + (",".join(p.name for p in slot.apps) or "-")
            for slot in scheduler.servers
        )
        rows.append([strategy, objectives[strategy], layout])
    print(banner("job placement (extension: paper future-work i)"))
    print(format_table(["strategy", "objective", "placement"], rows))
    return 0


def cmd_zones(args: argparse.Namespace) -> int:
    from repro.server.powercap import HardwarePowercap
    from repro.server.server import SimulatedServer

    mix = get_mix(args.mix)
    names = mix.names()
    limits = _parse_list(args.limits, "limits", float)
    if len(limits) != len(names):
        raise ConfigurationError(
            f"--limits needs {len(names)} values for {mix}, got {len(limits)}"
        )
    server = SimulatedServer()
    for profile in mix.profiles():
        server.admit(profile.with_total_work(float("inf")))
    powercap = HardwarePowercap(server)
    for name, limit in zip(names, limits):
        powercap.set_zone(name, limit)
    result = None
    for _ in range(int(args.duration / 0.1)):
        result = server.tick(0.1)
        powercap.on_tick(result)
    print(banner(f"hardware powercap zones on {mix}"))
    rows = []
    for name in names:
        zone = powercap.zones[name]
        rows.append(
            [
                name,
                zone.limit_w,
                result.breakdown.app_w.get(name, 0.0),
                str(zone.knob),
                zone.stats.throttle_steps,
            ]
        )
    print(
        format_table(
            ["app", "limit [W]", "measured [W]", "enforced knob", "throttle steps"],
            rows,
        )
    )
    print(f"wall power {result.breakdown.wall_w:.1f} W")
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    if args.chaos:
        # The cluster's control plane is a depth-1 budget tree.
        return _hierarchy_soak(args, (10,), n_steps=120, budget_w=800.0)
    simulator = ClusterSimulator(engine=args.engine or "scalar")
    step_s = 600.0 if args.fast else 120.0
    trace = ClusterPowerTrace.synthetic_diurnal(
        peak_w=simulator.uncapped_cluster_power_w(),
        step_s=step_s,
        seed=args.seed,
    )
    outages = [_parse_outage(spec) for spec in args.outage or ()]
    plan = _load_fault_plan(args.faults)
    if plan is not None:
        outages.extend(outages_from_fault_plan(plan, step_s=step_s))
    try:
        outages = validate_outages(
            tuple(outages),
            n_steps=len(trace.demand_w),
            n_servers=simulator.n_servers,
        )
    except ConfigurationError as exc:
        raise NetworkError(str(exc)) from None
    partitions = tuple(_parse_partition(spec) for spec in args.partition or ())
    netsim = None
    if (
        args.netsim_seed is not None
        or args.loss > 0.0
        or args.latency > 0
        or args.jitter > 0
        or partitions
    ):
        netsim = NetConfig(
            latency_steps=args.latency,
            jitter_steps=args.jitter,
            loss=args.loss,
            duplicate=args.loss / 2.0,
            partitions=partitions,
            seed=args.netsim_seed if args.netsim_seed is not None else args.seed,
        )
    bus = TraceBus() if args.trace_out else None
    metrics = MetricsRegistry() if args.metrics_out else None
    experiment = simulator.run(
        trace=trace,
        duration_s=15.0 if args.fast else 30.0,
        warmup_s=8.0 if args.fast else 12.0,
        seed=args.seed,
        outages=outages,
        netsim=netsim,
        trace_bus=bus,
        metrics=metrics,
    )
    title = "cluster peak shaving (Fig. 12)"
    if netsim is not None:
        title += (
            f" over lossy net (loss {netsim.loss:.0%}, "
            f"latency {netsim.latency_steps}+{netsim.jitter_steps} steps, "
            f"{len(partitions)} partitions)"
        )
    print(banner(title))
    rows = []
    for shave in sorted(experiment.results):
        for policy, r in sorted(experiment.results[shave].items()):
            rows.append(
                [f"{shave:.0%}", policy, r.aggregate_performance, r.budget_efficiency]
            )
    print(format_table(["shave", "policy", "agg perf", "perf/avail-W"], rows))
    _write_observability(args, bus, metrics.to_json() if metrics is not None else None)
    return 0


def _parse_subtree_outage(spec: str):
    """Parse a ``PATH:START:END`` failure-domain window (dotted tree path)."""
    from repro.hierarchy import SubtreeOutage, parse_path

    try:
        path_s, start_s, end_s = spec.split(":")
        start, end = int(start_s), int(end_s)
    except ValueError:
        raise NetworkError(
            f"--outage expects PATH:START:END like 0:20:60, got {spec!r}"
        ) from None
    try:
        return SubtreeOutage(path=parse_path(path_s), start_step=start, end_step=end)
    except ConfigurationError as exc:
        raise NetworkError(f"--outage {spec!r}: {exc}") from None


#: Flags (by argparse dest) a chaos soak cannot honour: it draws its own
#: network, partition, outage and fault schedules, steps no server model
#: (so ``cluster``'s ``--engine`` and ``--fast`` change nothing), and writes
#: no trace or metrics file.
_SOAK_REJECTED_FLAGS = (
    "trace_out", "metrics_out", "outage", "partition", "faults", "latency",
    "jitter", "netsim_seed", "engine", "fast",
)


def _hierarchy_soak(
    args: argparse.Namespace,
    fanouts: tuple[int, ...],
    *,
    n_steps: int,
    budget_w: float | None,
) -> int:
    """``hierarchy --chaos N`` and ``cluster --chaos N``: seeded
    failure-domain soaks on the tree."""
    from repro.chaos import run_hierarchy_soak

    for dest in _SOAK_REJECTED_FLAGS:
        if getattr(args, dest, None):
            raise ConfigurationError(
                f"--{dest.replace('_', '-')} cannot be combined with --chaos: "
                "the soak draws its own schedules, steps no server model and "
                "writes no trace or metrics file"
            )
    soak = run_hierarchy_soak(
        seeds=list(range(args.seed, args.seed + args.chaos)),
        fanouts=fanouts,
        n_steps=n_steps,
        budget_w=budget_w,
        max_loss=args.loss if args.loss > 0.0 else 0.3,
    )
    first = soak.runs[0]
    print(
        banner(
            f"hierarchy chaos soak: {len(soak.runs)} seeded schedules on "
            f"{' x '.join(str(f) for f in fanouts)} = {first.n_leaves} "
            f"servers, {first.budget_w:.0f} W"
        )
    )
    rows = [
        [
            run.seed,
            f"{run.loss:.0%}",
            run.domain_outages,
            run.restarts,
            run.fallbacks,
            run.heals,
            run.headroom_w,
            f"{run.min_sibling_ratio:.3f}",
        ]
        for run in soak.runs
    ]
    print(
        format_table(
            ["seed", "loss", "domain outages", "restarts", "fallbacks",
             "heals", "headroom [W]", "sibling ratio"],
            rows,
        )
    )
    print(
        f"all {len(soak.runs)} runs held the delegation invariant at every "
        f"node; min headroom {soak.min_headroom_w:.1f} W, worst sibling "
        f"containment ratio {soak.min_sibling_ratio:.3f} over "
        f"{soak.total_domain_outages} domain outages and "
        f"{soak.total_restarts} stale-checkpoint restarts"
    )
    return 0


def cmd_hierarchy(args: argparse.Namespace) -> int:
    from repro.cluster.controlplane import ControlPlaneConfig
    from repro.hierarchy import (
        TreeSpec,
        TreeTopology,
        run_budget_tree,
        subtree_outages_from_fault_plan,
    )

    fanouts = tuple(_parse_list(args.fanouts, "fanouts", int))
    if args.chaos:
        return _hierarchy_soak(
            args, fanouts, n_steps=args.steps, budget_w=args.budget
        )
    spec = TreeSpec(
        fanouts=fanouts,
        budget_w=(
            100.0 * int(np.prod(fanouts)) if args.budget is None else args.budget
        ),
    )
    outages = [_parse_subtree_outage(s) for s in args.outage or ()]
    plan = _load_fault_plan(args.faults)
    if plan is not None:
        # Hierarchy schedules are in abstract ticks; fault-plan seconds map
        # one-to-one onto them.
        topology = TreeTopology(spec=spec, config=ControlPlaneConfig())
        outages.extend(
            subtree_outages_from_fault_plan(plan, step_s=1.0, topology=topology)
        )
    net = NetConfig(
        latency_steps=args.latency,
        jitter_steps=args.jitter,
        loss=args.loss,
        duplicate=args.loss / 2.0,
        partitions=tuple(_parse_partition(s) for s in args.partition or ()),
        seed=args.seed,
    )
    bus = TraceBus() if args.trace_out else None
    metrics = MetricsRegistry() if args.metrics_out else None
    outcome = run_budget_tree(
        spec,
        [spec.n_leaves] * args.steps,
        net=net,
        subtree_outages=tuple(outages),
        drain_steps=20,
        trace_bus=bus if bus is not None else NULL_TRACE_BUS,
        metrics=metrics,
    )
    print(
        banner(
            f"budget tree: {' x '.join(str(f) for f in fanouts)} = "
            f"{spec.n_leaves} servers, {outcome.budget_w:.0f} W"
        )
    )
    rows = []
    nodes_at_level = 1
    for depth, safe_w in enumerate(outcome.safe_caps_by_level_w, start=1):
        nodes_at_level *= fanouts[depth - 1]
        rows.append(
            [
                spec.level_names[depth],
                nodes_at_level,
                fanouts[depth] if depth < len(fanouts) else "-",
                safe_w,
            ]
        )
    print(format_table(["level", "nodes", "fanout", "safe cap/node [W]"], rows))
    mean_total = sum(sum(row) for row in outcome.caps_w) / len(outcome.caps_w)
    print(
        f"mediation quality {mean_total / outcome.budget_w:.1%} of budget "
        f"(peak {outcome.max_total_cap_w:.1f} W, never above budget); "
        f"fallbacks {outcome.fallbacks}, heals {outcome.heals}; "
        f"zombie-free {outcome.zombie_free}"
    )
    stats = outcome.net_stats
    print(
        f"network: {stats['sent']} sent, {stats['dropped_loss']} lost, "
        f"{stats['dropped_partition']} cut, {stats['duplicated']} duplicated "
        f"across {len(outcome.final_epochs)} fabrics"
    )
    _write_observability(
        args, bus, metrics.to_json() if metrics is not None else None
    )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    events = read_trace(args.path)
    # Tolerant of kinds a newer writer added: they surface in the summary's
    # ``other`` bucket instead of failing the structural verification.
    checks = verify_trace(events, strict_kinds=False)
    summary = summarize_trace(events)
    print(banner(f"trace {args.path}"))
    print(
        f"events {summary['events']} "
        f"({summary['sim_events']} sim + {summary['meta_events']} meta); "
        f"ticks {summary['ticks']} "
        f"[{summary['first_tick']}..{summary['last_tick']}], "
        f"{summary['duration_s']:.1f} s of sim time; "
        f"restarts {summary['restarts']}; "
        f"breach ticks {checks['breach_ticks']}"
    )
    print("kinds: " + ", ".join(f"{k}={v}" for k, v in summary["kinds"].items()))
    cp = {
        kind: count
        for kind, count in summary["kinds"].items()
        if kind in CONTROL_PLANE_KINDS
    }
    if cp:
        print(
            f"control plane: {sum(cp.values())} events ("
            + ", ".join(f"{k.removeprefix('cp-')}={v}" for k, v in sorted(cp.items()))
            + ")"
        )
    hier = {
        kind: count
        for kind, count in summary["kinds"].items()
        if kind in HIERARCHY_KINDS
    }
    if hier:
        print(
            f"hierarchy: {sum(hier.values())} events ("
            + ", ".join(
                f"{k.removeprefix('hier-')}={v}" for k, v in sorted(hier.items())
            )
            + ")"
        )
    adv = {
        kind: count
        for kind, count in summary["kinds"].items()
        if kind in ADVERSARY_TRACE_KINDS
    }
    if adv:
        print(
            f"adversary/defense: {sum(adv.values())} events ("
            + ", ".join(f"{k.removeprefix('adv-')}={v}" for k, v in sorted(adv.items()))
            + ")"
        )
    if summary["other"]:
        # Kinds outside the schema (e.g. a newer writer); counted, not fatal.
        print(f"other: {summary['other']} events of unrecognized kinds")
    if summary["modes"]:
        print("modes: " + ", ".join(f"{m}={n}" for m, n in summary["modes"].items()))
    if getattr(args, "metrics", None):
        # Wall-clock lives in the metrics JSON, never on the trace bus (it
        # would break hash determinism), so pairing the two files here is
        # the only place a run's hot phases appear next to its events.
        try:
            with open(args.metrics, encoding="utf-8") as fh:
                profile = json.load(fh).get("profile", {})
        except OSError as exc:
            raise ObservabilityError(
                f"cannot read metrics file {args.metrics}: {exc.strerror}"
            ) from exc
        except json.JSONDecodeError as exc:
            raise ObservabilityError(
                f"metrics file {args.metrics} is not valid JSON: {exc}"
            ) from exc
        fast = profile.pop("fast_path", None)
        top = sorted(profile.items(), key=lambda kv: -kv[1].get("total_s", 0.0))[:3]
        if top:
            print("hottest phases (from " + args.metrics + "):")
            for name, stat in top:
                print(
                    f"  {name}: {stat.get('total_s', 0.0):.3f} s over "
                    f"{stat.get('calls', 0)} calls "
                    f"(p95 {stat.get('p95_s', 0.0) * 1e6:.1f} us/call)"
                )
        else:
            print(f"no phase profile found in {args.metrics}")
        if fast:
            demotions = sorted(fast["demotions"].items(), key=lambda kv: (-kv[1], kv[0]))
            print(
                f"fast path: {fast['fast_ticks']} of "
                f"{fast['fast_ticks'] + fast['scalar_ticks']} ticks in "
                f"{fast['segments']} segments; demotions: "
                + (", ".join(f"{reason}={n}" for reason, n in demotions) or "none")
            )
    print(f"verified ok; sha256 {summary['hash']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mediating Power Struggles on a Shared Server (ISPASS 2020) - reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, cap_default: float = 100.0) -> None:
        p.add_argument("--cap", type=float, default=cap_default, help="server power cap [W]")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--oracle",
            action="store_true",
            help="bypass online learning (true response surfaces)",
        )

    def engine_arg(p: argparse.ArgumentParser, *, default: str | None = "vector") -> None:
        p.add_argument(
            "--engine",
            choices=list(ENGINE_KINDS),
            default=default,
            help="server model implementation; 'vector' is the numpy "
            "fast path, bit-identical to the scalar reference",
        )

    def faults_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--faults",
            type=str,
            default=None,
            metavar="PLAN.json",
            help="inject faults from a JSON plan ('default' for the built-in plan)",
        )

    def observability_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace-out",
            type=str,
            default=None,
            metavar="RUN.jsonl",
            help="record a structured trace of the run (canonical JSONL)",
        )
        p.add_argument(
            "--metrics-out",
            type=str,
            default=None,
            metavar="METRICS.json",
            help="export counters/gauges/histograms and per-phase profile",
        )

    p_mix = sub.add_parser("mix", help="one co-location under one policy")
    p_mix.add_argument("--mix", type=int, default=10, help="Table II mix id (1-15)")
    p_mix.add_argument("--policy", choices=POLICY_NAMES, default="app+res-aware")
    p_mix.add_argument("--duration", type=float, default=30.0)
    p_mix.add_argument("--warmup", type=float, default=10.0)
    p_mix.add_argument(
        "--checkpoint-dir",
        type=str,
        default=None,
        metavar="DIR",
        help="run supervised, checkpointing into DIR (with a progress journal)",
    )
    p_mix.add_argument(
        "--checkpoint-every",
        type=int,
        default=50,
        metavar="N",
        help="ticks between checkpoints (with --checkpoint-dir)",
    )
    p_mix.add_argument(
        "--resume",
        type=str,
        default=None,
        metavar="CKPT.json",
        help="restore a checkpoint and run the remaining duration; the cap, "
        "policy and fault plan are the checkpointed run's",
    )
    common(p_mix)
    engine_arg(p_mix)
    faults_arg(p_mix)
    observability_args(p_mix)
    p_mix.set_defaults(func=cmd_mix)

    p_chaos = sub.add_parser(
        "chaos", help="kill/restart soak: crash the mediator, assert recovery"
    )
    p_chaos.add_argument("--mix", type=int, default=10, help="Table II mix id (1-15)")
    p_chaos.add_argument("--policy", choices=POLICY_NAMES, default="app+res-aware")
    p_chaos.add_argument("--duration", type=float, default=10.0)
    p_chaos.add_argument("--warmup", type=float, default=4.0)
    p_chaos.add_argument("--runs", type=int, default=5, help="seeded soak runs")
    p_chaos.add_argument("--kills", type=int, default=3, help="kills per run")
    p_chaos.add_argument(
        "--checkpoint-every", type=int, default=50, metavar="N",
        help="ticks between checkpoints",
    )
    p_chaos.add_argument(
        "--safe-hold", type=int, default=0, metavar="TICKS",
        help="guard-banded safe posture after each restart",
    )
    p_chaos.add_argument(
        "--tear-bytes", type=int, default=0, metavar="B",
        help="tear up to B un-fsynced bytes off the journal at each crash",
    )
    p_chaos.add_argument(
        "--tolerance", type=float, default=0.01,
        help="relative utility tolerance vs the uninterrupted baseline",
    )
    p_chaos.add_argument(
        "--workdir", type=str, default=None,
        help="keep journals/checkpoints here (default: a temp dir)",
    )
    p_chaos.add_argument(
        "--trace", action="store_true",
        help="trace every run and enforce stitched-trace == baseline hash",
    )
    p_chaos.add_argument(
        "--metrics-out", type=str, default=None, metavar="METRICS.json",
        help="export the soak's merged metrics registry",
    )
    common(p_chaos)
    faults_arg(p_chaos)
    p_chaos.set_defaults(func=cmd_chaos)

    p_adv = sub.add_parser(
        "adversary",
        help="byzantine arms: strategic tenants vs the mediator's trust defenses",
    )
    p_adv.add_argument(
        "--kind",
        choices=["all", *ADVERSARY_KINDS],
        default="all",
        help="attack class to run (default: every kind)",
    )
    p_adv.add_argument("--mix", type=int, default=1, help="Table II mix id (1-15)")
    p_adv.add_argument("--seed", type=int, default=0)
    p_adv.add_argument(
        "--soak", type=int, default=1, metavar="N",
        help="run seeds 0..N-1 per kind instead of a single seed",
    )
    p_adv.add_argument(
        "--no-undefended", action="store_true",
        help="skip the undefended comparison arm",
    )
    p_adv.add_argument(
        "--metrics-out", type=str, default=None, metavar="METRICS.json",
        help="export the defended arms' merged metrics registry",
    )
    p_adv.set_defaults(func=cmd_adversary)

    p_serve = sub.add_parser(
        "serve", help="long-running service mode: open-loop streaming ingest"
    )
    p_serve.add_argument(
        "--ticks", type=int, default=2000, help="sim ticks to run (0.1 s each)"
    )
    p_serve.add_argument("--policy", choices=POLICY_NAMES, default="app+res-aware")
    p_serve.add_argument(
        "--rate", type=float, default=0.3, help="mean job submissions per second"
    )
    p_serve.add_argument(
        "--clients", type=int, default=4, help="streaming client sessions"
    )
    p_serve.add_argument(
        "--work-scale", type=float, default=0.05,
        help="job size multiplier vs the catalog profiles",
    )
    p_serve.add_argument(
        "--diurnal-amplitude", type=float, default=0.3,
        help="sinusoidal rate modulation depth in [0, 1)",
    )
    p_serve.add_argument(
        "--diurnal-period", type=float, default=300.0, metavar="S",
        help="period of the diurnal modulation [s]",
    )
    p_serve.add_argument(
        "--burst", action="append", default=None, metavar="START:END:MULT",
        help="overload burst window in seconds (repeatable)",
    )
    p_serve.add_argument(
        "--capacity", type=int, default=16, help="bounded ingest buffer slots"
    )
    p_serve.add_argument(
        "--backpressure", choices=list(BACKPRESSURE_POLICIES), default="shed-oldest",
        help="what a full ingest buffer does to new regular commands",
    )
    p_serve.add_argument(
        "--cap-levels", type=str, default="", metavar="W1,W2,...",
        help="provisioner cap schedule, cycled through the safety lane",
    )
    p_serve.add_argument(
        "--cap-every", type=float, default=60.0, metavar="S",
        help="seconds between scheduled cap changes",
    )
    p_serve.add_argument(
        "--checkpoint-every", type=int, default=200, metavar="N",
        help="ticks between durable service checkpoints",
    )
    p_serve.add_argument(
        "--kills", type=int, default=0,
        help="chaos: mid-stream supervisor kills (enables the soak harness)",
    )
    p_serve.add_argument(
        "--churn", type=int, default=0,
        help="chaos: client disconnect/reconnect events",
    )
    p_serve.add_argument("--chaos-seed", type=int, default=0)
    p_serve.add_argument(
        "--tear-bytes", type=int, default=256, metavar="B",
        help="tear up to B un-fsynced journal bytes at each kill",
    )
    p_serve.add_argument(
        "--workdir", type=str, default=None,
        help="keep journal/checkpoints here (default: a temp dir)",
    )
    p_serve.add_argument(
        "--metrics-out", type=str, default=None, metavar="METRICS.json",
        help="export the service counter map",
    )
    common(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_cmp = sub.add_parser("compare", help="policies x mixes comparison")
    p_cmp.add_argument("--mixes", type=str, default="", help="comma-separated mix ids (default: all)")
    p_cmp.add_argument(
        "--policies",
        type=str,
        default="",
        help=f"comma-separated from {POLICY_NAMES}",
    )
    p_cmp.add_argument("--duration", type=float, default=25.0)
    p_cmp.add_argument("--warmup", type=float, default=8.0)
    common(p_cmp)
    engine_arg(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_util = sub.add_parser("utility", help="an application's utility curves")
    p_util.add_argument("--app", choices=application_names(), required=True)
    p_util.set_defaults(func=cmd_utility)

    p_cal = sub.add_parser("calibrate", help="sampling-fraction calibration (Fig. 7)")
    p_cal.add_argument("--fractions", type=str, default="0.02,0.05,0.10,0.20,0.40")
    p_cal.add_argument("--seed", type=int, default=0)
    p_cal.set_defaults(func=cmd_calibrate)

    p_dyn = sub.add_parser("dynamic", help="Poisson arrival stream")
    p_dyn.add_argument("--rate", type=float, default=0.02, help="arrivals per second")
    p_dyn.add_argument("--horizon", type=float, default=300.0, help="simulation length [s]")
    p_dyn.add_argument("--work", type=float, default=100.0, help="work units per arrival")
    p_dyn.add_argument("--policy", choices=POLICY_NAMES, default="app+res-aware")
    common(p_dyn)
    engine_arg(p_dyn)
    faults_arg(p_dyn)
    p_dyn.set_defaults(func=cmd_dynamic)

    p_clu = sub.add_parser("cluster", help="cluster peak shaving (Fig. 12)")
    p_clu.add_argument("--fast", action="store_true", help="coarse settings")
    p_clu.add_argument("--seed", type=int, default=1)
    p_clu.add_argument(
        "--netsim-seed", type=int, default=None, metavar="SEED",
        help="distribute caps over the simulated lossy network seeded here "
        "(any netsim flag enables the control plane; default seed: --seed)",
    )
    p_clu.add_argument(
        "--loss", type=float, default=0.0, metavar="P",
        help="per-message drop probability in [0, 1)",
    )
    p_clu.add_argument(
        "--latency", type=int, default=0, metavar="STEPS",
        help="base one-way delivery latency in trace steps",
    )
    p_clu.add_argument(
        "--jitter", type=int, default=0, metavar="STEPS",
        help="uniform extra delivery latency in [0, STEPS]",
    )
    p_clu.add_argument(
        "--partition", action="append", default=None, metavar="START:END:N1+N2",
        help="cut these servers off the controller for [START, END) steps "
        "(repeatable)",
    )
    p_clu.add_argument(
        "--outage", action="append", default=None, metavar="SERVER:START:END",
        help="take a server down for [START, END) steps (repeatable)",
    )
    p_clu.add_argument(
        "--chaos", type=int, default=0, metavar="RUNS",
        help="run RUNS seeded chaos schedules (loss, partitions, server "
        "kills, a controller crash) against the 10-server control plane "
        "instead of the Fig. 12 sweep",
    )
    # None (not "scalar") until given, so --chaos can reject an explicit
    # --engine scalar too; the sweep runs the scalar engine by default.
    engine_arg(p_clu, default=None)
    faults_arg(p_clu)
    observability_args(p_clu)
    p_clu.set_defaults(func=cmd_cluster)

    p_hier = sub.add_parser(
        "hierarchy", help="datacenter -> PDU -> rack budget-tree mediation"
    )
    p_hier.add_argument(
        "--fanouts", type=str, default="3,4", metavar="F1,F2",
        help="children per level, top-down (3,4 = 3 PDUs x 4 servers)",
    )
    p_hier.add_argument(
        "--budget", type=float, default=None, metavar="W",
        help="datacenter budget in watts (default: 100 W per server)",
    )
    p_hier.add_argument("--steps", type=int, default=120, metavar="N")
    p_hier.add_argument("--seed", type=int, default=1)
    p_hier.add_argument(
        "--loss", type=float, default=0.0, metavar="P",
        help="per-message drop probability in [0, 1), at every fabric",
    )
    p_hier.add_argument(
        "--latency", type=int, default=0, metavar="STEPS",
        help="base one-way delivery latency in steps",
    )
    p_hier.add_argument(
        "--jitter", type=int, default=0, metavar="STEPS",
        help="uniform extra delivery latency in [0, STEPS]",
    )
    p_hier.add_argument(
        "--partition", action="append", default=None, metavar="START:END:N1+N2",
        help="cut these root-fabric children (PDU uplinks) for [START, END) "
        "steps (repeatable)",
    )
    p_hier.add_argument(
        "--outage", action="append", default=None, metavar="PATH:START:END",
        help="take the whole failure domain at dotted PATH dark for "
        "[START, END) steps, controller and all (repeatable)",
    )
    p_hier.add_argument(
        "--chaos", type=int, default=0, metavar="RUNS",
        help="run RUNS seeded failure-domain chaos schedules against the "
        "tree instead of the plain replay",
    )
    faults_arg(p_hier)
    observability_args(p_hier)
    p_hier.set_defaults(func=cmd_hierarchy)

    p_place = sub.add_parser("place", help="power-aware job placement (extension)")
    p_place.add_argument(
        "--caps", type=str, default="120,100,85,75", help="per-server caps [W]"
    )
    p_place.add_argument(
        "--jobs",
        type=str,
        default="stream,pagerank,sssp,x264",
        help="comma-separated catalog applications",
    )
    p_place.set_defaults(func=cmd_place)

    p_zones = sub.add_parser("zones", help="hardware powercap zones (extension)")
    p_zones.add_argument("--mix", type=int, default=1)
    p_zones.add_argument(
        "--limits", type=str, default="15,12", help="per-app zone limits [W]"
    )
    p_zones.add_argument("--duration", type=float, default=30.0)
    p_zones.set_defaults(func=cmd_zones)

    p_trace = sub.add_parser("trace", help="inspect a recorded run trace")
    p_trace.add_argument(
        "action", choices=["summarize"], help="what to do with the trace"
    )
    p_trace.add_argument("path", help="trace file written by --trace-out")
    p_trace.add_argument(
        "--metrics",
        default=None,
        help="companion metrics JSON (--metrics-out); prints the run's "
        "top-3 hottest control-loop phases with call counts and p95",
    )
    p_trace.set_defaults(func=cmd_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv if argv is not None else sys.argv[1:])
    try:
        return int(args.func(args))
    except (
        ConfigurationError,
        FaultError,
        ServiceError,
        NetworkError,
        PersistenceError,
        ChaosError,
        ObservabilityError,
        AdversaryError,
    ) as exc:
        # Malformed configs/fault plans/network schedules, corrupt
        # checkpoints, torn journals, failed soak invariants, damaged
        # traces, broken service streams, bad attack schedules: one clear
        # line, never a traceback.
        return _fail(exc)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
