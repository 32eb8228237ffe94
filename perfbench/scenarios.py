"""The benchmark's four workloads, each run as seeded episodes of fixed size.

An episode builds its inputs from the seed (set-up), drives a fixed number
of steps through the program's public entry points while timing each step
(the timed window), then checks the outputs and folds them into a digest.
Untraced episodes also run the reference kernel of :mod:`refclock` at the
step boundaries, outside every step's time, and report each step's cost in
reference units as well as in host seconds.
Everything simulated is a pure function of the seed (and, on ``service``,
of the episode's input variant), so every episode of one run with the same
variant must produce the same digest and the same simulated metrics; only
the host-time figures vary.

Every call into a layer goes through the :class:`~spans.Tracer`, which
records a span around it on traced runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.cluster.controlplane import ControlPlaneConfig
from repro.core.mediator import PowerMediator
from repro.core.policies import make_policy
from repro.core.simulation import run_mix_experiment, verify_cap_invariant
from repro.engine import MediatedFleet
from repro.errors import ReproError, SchedulingError
from repro.hierarchy import (
    BudgetTreeSimulator,
    SubtreeOutage,
    TreeSpec,
    TreeTopology,
    run_budget_tree,
)
from repro.learning.crossval import build_exhaustive_corpus
from repro.netsim import NetConfig
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import TraceBus, read_trace, trace_hash, verify_trace
from repro.server.config import DEFAULT_SERVER_CONFIG
from repro.server.server import SimulatedServer
from repro.service import MediatorService, RetentionConfig, ServiceConfig
from repro.workloads.catalog import CATALOG
from repro.workloads.mixes import all_mixes
from repro.workloads.population import BurstWindow

from refclock import RefClock
from spans import Tracer

#: Mediator phases the PhaseProfiler reports, in the order they are listed.
PHASES = ("learn", "allocate", "coordinate", "actuate", "engine", "telemetry", "events", "defense")

#: Demotion reasons reported one by one; any other reason lands in "other".
DEMOTIONS = (
    "calibration",
    "cold-start",
    "time-rotation",
    "short-horizon",
    "short-window",
    "trust-fingerprint",
    "resume-debt",
)


@dataclass
class Episode:
    """What one episode measured and produced.

    ``steps`` counts the steps attempted; ``step_s`` holds the host time of
    each step whose both ends are observable (all of them, except the last
    tree step of ``dc-tree``). ``wall_s`` is the timed window less the
    reference kernel's passes. ``setup_ref``, ``step_ref`` and ``wall_ref``
    are ``setup_s``, ``step_s`` and ``wall_s`` in reference units, on
    untraced episodes only (0 and empty otherwise). ``work`` is in
    server-ticks (tree leaf-steps on ``dc-tree``). ``checks`` maps each
    output check to whether it held.
    ``variant`` numbers the inputs drawn from the seed that the episode ran.
    """

    setup_s: float
    setup_ref: float
    wall_s: float
    wall_ref: float
    steps: int
    step_s: list[float]
    step_ref: list[float]
    work: int
    checks: dict[str, bool]
    quality: dict[str, float]
    digest: str
    counts: dict[str, float]
    variant: int = 0


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def _in_units(clock: RefClock) -> tuple[list[float], list[float], float, float]:
    """Each segment of ``clock`` in host seconds and in reference units,
    and their totals; the units are empty and 0 when the clock is off."""
    segments = clock.segments()
    units = [s / k for s, k in zip(segments, clock.scales())] if clock.enabled else []
    return segments, units, sum(segments), sum(units)


def _setup_units(clock: RefClock, setup_s: float) -> float:
    """``setup_s`` in reference units, at the host speed the clock measured
    as the timed window opened; 0 when the clock is off."""
    return setup_s / clock.scales()[0] if clock.enabled else 0.0


def _rng(seed: int, stream: int) -> np.random.Generator:
    """A per-workload stream, so workloads never share random draws."""
    return np.random.default_rng([seed, stream])


def _mediator_counts(exports) -> dict[str, float]:
    """Reallocations and PhaseProfiler times summed over mediators, from each
    one's ``(counters, profile report)``."""
    counts = {"mediator.reallocations": 0.0}
    counts.update({f"mediator.phase.{p}_s": 0.0 for p in PHASES})
    for counters, profile in exports:
        counts["mediator.reallocations"] += counters.get("mediator.reallocations", 0.0)
        for phase, stat in profile.items():
            key = f"mediator.phase.{phase}_s"
            if key in counts:
                counts[key] += stat["total_s"]
    return counts


def _residency_throughput(mediator: PowerMediator, app: str) -> float:
    """Normalized throughput over the app's residency (admission to
    completion, or to now for an app still running)."""
    try:
        handle = mediator.finished_handle(app)
    except SchedulingError:
        handle = mediator.server.handle_of(app)
    end = handle.completed_at_s if handle.completed else mediator.server.now_s
    elapsed = max(mediator.dt_s, end - handle.admitted_at_s)
    return handle.work_done / elapsed / mediator.peak_rate_of(app)


def _tree_counts(registry: MetricsRegistry, net_stats: dict, leaf_steps: int) -> dict:
    counters = registry.counters()
    counts = {
        name: counters.get(name, 0.0)
        for name in (
            "controlplane.commands",
            "controlplane.acks",
            "controlplane.retries",
            "controlplane.lease_expiries",
            "hierarchy.fallbacks",
            "hierarchy.heals",
            "hierarchy.deferred_shrinks",
        )
    }
    for key in ("sent", "delivered", "dropped_loss", "duplicated"):
        counts[f"netsim.{key}"] = float(net_stats.get(key, 0))
    copies = net_stats.get("sent", 0) + net_stats.get("duplicated", 0)
    counts["netsim.msgs_per_leaf_step"] = net_stats.get("sent", 0) / leaf_steps
    counts["netsim.delivered_frac"] = net_stats.get("delivered", 0) / copies if copies else 0.0
    return counts


# --------------------------------------------------------------------- dc-tree

DC_FANOUTS = (10, 10, 10)
DC_STEPS = 30
DC_LEAF_BUDGET_W = 100.0
DC_OUTAGE_STEPS = 8


class _ClockedSchedule(list):
    """A load schedule that marks ``clock`` when each step's entry is read.

    ``run_budget_tree`` reads ``loaded_counts[step]`` first thing in every
    step, so the reads mark the step boundaries from outside the program.
    (Validation iterates the list, which does not go through
    ``__getitem__``; the one negative-index read marks nothing.)
    """

    def __init__(self, counts: list[int], clock: RefClock) -> None:
        super().__init__(counts)
        self.clock = clock

    def __getitem__(self, index):
        if isinstance(index, int) and index >= 0:
            self.clock.mark()
        return super().__getitem__(index)


def dc_tree(seed: int, tracer: Tracer, run_id: int) -> Episode:
    """``run_budget_tree`` on a 1000-leaf tree under a diurnal load, a lossy
    fabric and one rack outage, with no mediators.

    The whole call is timed. Its steps are the intervals between the reads
    of the load schedule; the tree build before the first read, and the
    final step with the outcome assembly after the last, stay in the
    ``hierarchy.run`` span's self time. The clock is marked before the
    call, at every read and after the call.
    """
    started = time.perf_counter()
    rng = _rng(seed, 1)
    spec = TreeSpec(fanouts=DC_FANOUTS, budget_w=DC_LEAF_BUDGET_W * math.prod(DC_FANOUTS))
    n = spec.n_leaves
    phase = rng.uniform(0.0, 2.0 * math.pi)
    load = 0.6 + 0.3 * np.sin(2.0 * math.pi * np.arange(DC_STEPS) / DC_STEPS + phase)
    load += rng.normal(0.0, 0.02, DC_STEPS)
    counts = np.clip(np.rint(load * n), n // 10, n).astype(int).tolist()
    rack = tuple(int(rng.integers(f)) for f in DC_FANOUTS[:-1])
    start = int(rng.integers(5, DC_STEPS - DC_OUTAGE_STEPS - 5))
    outage = SubtreeOutage(path=rack, start_step=start, end_step=start + DC_OUTAGE_STEPS)
    net = NetConfig(loss=0.1, duplicate=0.05, jitter_steps=1, seed=int(rng.integers(2**31)))
    dark = set(TreeTopology(spec=spec, config=ControlPlaneConfig()).leaves_under(rack))
    clock = RefClock(not tracer.enabled)
    schedule = _ClockedSchedule(counts, clock)
    registry = MetricsRegistry()
    setup_s = time.perf_counter() - started

    with tracer.episode(run_id):
        clock.mark()
        outcome = tracer.call(
            "hierarchy.run",
            run_budget_tree,
            spec,
            schedule,
            net=net,
            subtree_outages=(outage,),
            metrics=registry,
        )
        run_span = tracer.last
        clock.mark()
    segments, units, wall_s, wall_ref = _in_units(clock)
    reads = clock.passes[1:-1]
    for (_, a), (b, _) in zip(reads, reads[1:]):
        tracer.add("hierarchy.step", a, b, parent=run_span)

    budget = spec.budget_w
    eps = 1e-6 * n
    checks = {
        "tree-invariant": outcome.max_total_cap_w <= budget + eps
        and all(sum(row) <= budget + eps for row in outcome.caps_w),
        "zombie-free": outcome.zombie_free,
        "step-marks": len(reads) == DC_STEPS,
    }
    delivered = 0.0
    for step, (k, row) in enumerate(zip(counts, outcome.caps_w)):
        out = dark if outage.start_step <= step < outage.end_step else ()
        delivered += sum(row[i] for i in range(k) if i not in out)
    quality = {"delivered_budget_frac": delivered / (DC_STEPS * budget)}
    digest = _digest(
        {
            "caps": outcome.caps_w,
            "leaf_epochs": outcome.leaf_epochs,
            "node_epochs": outcome.node_epochs,
            "final_epochs": outcome.final_epochs,
            "net": outcome.net_stats,
            "fallbacks": outcome.fallbacks,
            "heals": outcome.heals,
        }
    )
    return Episode(
        setup_s=setup_s,
        setup_ref=_setup_units(clock, setup_s),
        wall_s=wall_s,
        wall_ref=wall_ref,
        steps=DC_STEPS,
        step_s=segments[1:-1],
        step_ref=units[1:-1],
        work=n * DC_STEPS,
        checks=checks,
        quality=quality,
        digest=digest,
        counts=_tree_counts(registry, outcome.net_stats, n * DC_STEPS),
    )


# ------------------------------------------------------------------ rack-fleet

RF_FANOUTS = (10, 10)
RF_STEPS = 24
RF_LEAF_BUDGET_W = 100.0
RF_CONTROL_S = 1.0
RF_DT_S = 0.1
RF_OFFER_SHARE = 0.25  # of the servers, offered a job at each step
RF_WORK_SCALE = 0.01
#: Clock marks per control step: after the admissions, after the tree step
#: with the cap pushes, and after the fleet advance.
RF_MARKS_PER_STEP = 3


def rack_fleet(
    seed: int,
    tracer: Tracer,
    run_id: int,
    *,
    fanouts: tuple[int, ...] = RF_FANOUTS,
    steps: int = RF_STEPS,
    fleet: bool = True,
) -> Episode:
    """A 10x10 budget tree driving one mediator per leaf.

    Each control step places Table II mixes with finite work on idle
    servers, steps the tree with the loaded set, pushes every changed leaf
    cap with ``set_power_cap`` and advances the fleet by one control
    period. ``fleet=False`` is the reference: scalar-engine mediators
    advanced by a plain ``run_for`` loop instead of vector-engine
    mediators in a ``MediatedFleet``; both must give the same digest.
    """
    started = time.perf_counter()
    rng = _rng(seed, 2)
    spec = TreeSpec(fanouts=fanouts, budget_w=RF_LEAF_BUDGET_W * math.prod(fanouts))
    n = spec.n_leaves
    # The seed decides which servers are offered a job at each step and
    # which job is which, but not how many offers there are nor the blend
    # of mixes and work sizes: the k-th admitted job runs the k-th mix of
    # shuffled rounds of all 15, with work factors drawn without
    # replacement from one evenly spaced grid. So every seed asks for the
    # same amount of work, and the host-time figures compare across seeds.
    per_step = round(RF_OFFER_SHARE * n)
    offers = [rng.permutation(n)[:per_step].tolist() for _ in range(steps)]
    mixes = all_mixes()
    max_jobs = steps * per_step
    rounds = -(-max_jobs // len(mixes))
    order = np.concatenate([rng.permutation(len(mixes)) for _ in range(rounds)])
    grid = np.linspace(0.5, 1.5, max_jobs)
    work = np.stack([rng.permutation(grid), rng.permutation(grid)], axis=1)
    jobs = [
        [
            replace(
                p,
                name=f"{p.name}#j{k}",
                total_work=p.total_work * RF_WORK_SCALE * float(work[k, j]),
            )
            for j, p in enumerate(mixes[order[k]].profiles())
        ]
        for k in range(max_jobs)
    ]
    server_seeds = rng.integers(2**31, size=n).tolist()
    registry = MetricsRegistry()
    sim = BudgetTreeSimulator(
        spec, net=NetConfig(jitter_steps=1, seed=int(rng.integers(2**31))), metrics=registry
    )
    caps = [sim.topology.safe_caps_w[leaf] for leaf in sim.topology.leaf_paths()]
    corpus = build_exhaustive_corpus(DEFAULT_SERVER_CONFIG, list(CATALOG.values()))
    policy = make_policy("app+res-aware")
    oracle_cache: dict = {}
    engine = "vector" if fleet else "scalar"
    mediators = []
    for i in range(n):
        m = PowerMediator(
            SimulatedServer(DEFAULT_SERVER_CONFIG, seed=server_seeds[i], engine=engine),
            policy,
            caps[i],
            corpus=corpus,
            use_oracle_estimates=True,
            dt_s=RF_DT_S,
            seed=server_seeds[i],
            oracle_cache=oracle_cache,
        )
        m.ensure_plan()
        mediators.append(m)
    if fleet:
        batch = MediatedFleet(mediators)
        advance = batch.run_for
    else:
        batch = None

        def advance(duration_s: float) -> None:
            for m in mediators:
                m.run_for(duration_s)

    clock = RefClock(not tracer.enabled)
    setup_s = time.perf_counter() - started

    placed: list[int] = []  # server of the k-th admitted job
    rows: list[tuple[float, ...]] = []
    loaded_sets: list[frozenset[int]] = []
    with tracer.episode(run_id):
        clock.mark()
        for step in range(steps):
            for i in offers[step]:
                m = mediators[i]
                if m.managed_apps():
                    continue
                for profile in jobs[len(placed)]:
                    tracer.call("mediator.add_application", m.add_application, profile)
                placed.append(i)
            clock.mark()
            loaded = frozenset(i for i, m in enumerate(mediators) if m.managed_apps())
            row = tracer.call("hierarchy.step", sim.step, step, loaded)
            for i, cap in enumerate(row):
                if cap != caps[i]:
                    tracer.call("mediator.set_power_cap", mediators[i].set_power_cap, cap)
                    caps[i] = cap
            clock.mark()
            tracer.call("planner.run_for", advance, RF_CONTROL_S)
            rows.append(row)
            loaded_sets.append(loaded)
            clock.mark()
    segments, units, wall_s, wall_ref = _in_units(clock)
    per = RF_MARKS_PER_STEP
    step_s = [sum(segments[k : k + per]) for k in range(0, len(segments), per)]
    step_ref = [sum(units[k : k + per]) for k in range(0, len(units), per)]

    budget = spec.budget_w
    eps = 1e-6 * n
    ticks = steps * round(RF_CONTROL_S / RF_DT_S)
    breaches = 0
    cap_ok = True
    for m in mediators:
        try:
            breaches += verify_cap_invariant(m)
        except ReproError:
            cap_ok = False
    timelines = [m.timeline for m in mediators]
    over_budget = 0
    if all(len(timeline) == ticks for timeline in timelines):
        for k in range(ticks):
            drawn = 0.0
            for timeline in timelines:
                record = timeline[k]
                drawn += record.wall_w if record.observed_wall_w is None else record.observed_wall_w
            if drawn > budget + eps:
                over_budget += 1
    else:
        over_budget = ticks
    checks = {
        "tree-invariant": all(sum(row) <= budget + eps for row in rows),
        "zombie-free": sim.zombie_free(steps - 1),
        "cap-invariant": cap_ok,
        "fleet-draw-within-budget": over_budget == 0,
    }
    delivered = sum(sum(row[i] for i in loaded) for row, loaded in zip(rows, loaded_sets))
    throughputs = [
        _residency_throughput(mediators[i], profile.name)
        for i, job in zip(placed, jobs)
        for profile in job
    ]
    quality = {
        "delivered_budget_frac": delivered / (steps * budget),
        "norm_throughput": sum(throughputs) / len(throughputs) if throughputs else 0.0,
        "breach_tick_frac": (breaches + over_budget) / (n * ticks),
    }
    digest = _digest(
        {
            "caps": rows,
            "timelines": [
                [(r.time_s, r.p_cap_w, r.wall_w, r.breach, r.mode.value) for r in timeline]
                for timeline in timelines
            ],
            "throughputs": throughputs,
        }
    )
    counts = _tree_counts(registry, sim.net_stats(), n * steps)
    counts.update(_mediator_counts((m.metrics.counters(), m.profiler.report()) for m in mediators))
    if batch is not None:
        counts["planner.fast_fraction"] = batch.fast_fraction
        counts["planner.fast_segments"] = float(batch.fast_segments)
        other = 0
        for reason, count in batch.demotions.items():
            if reason in DEMOTIONS:
                counts[f"planner.demotions.{reason}"] = float(count)
            else:
                other += count
        counts["planner.demotions.other"] = float(other)
    return Episode(
        setup_s=setup_s,
        setup_ref=_setup_units(clock, setup_s),
        wall_s=wall_s,
        wall_ref=wall_ref,
        steps=steps,
        step_s=step_s,
        step_ref=step_ref,
        work=n * ticks,
        checks=checks,
        quality=quality,
        digest=digest,
        counts=counts,
    )


# --------------------------------------------------------------------- service

SV_TICKS = 3000
SV_DT_S = 0.1
SV_CHECKPOINT_EVERY = 400
#: Ticks between marks of the reference clock; a tick alone is too short
#: to carry a kernel pass of its own.
SV_MARK_EVERY = 25
#: Service configurations drawn from one seed, which a run's episodes cycle
#: through. One stream's Poisson arrivals move an episode's cost by up to a
#: fifth from seed to seed, so a run averages over several streams. Odd, so
#: that the alternating traced and untraced episodes each cover all of them.
SV_VARIANTS = 5
#: Kinds of the one reply every offered command ends with.
_TERMINAL = ("nack", "admitted", "cap-applied", "cancelled")


def service_config(seed: int, variant: int) -> ServiceConfig:
    """Open-loop Poisson arrivals on a diurnal cycle with one burst that
    outruns the drain, a cap schedule alternating tight and loose, and the
    journal, checkpoints, retention and streaming trace all on."""
    rng = np.random.default_rng([seed, 3, variant])
    # Near the diurnal midline, so every seed's burst outruns the drain
    # (one command a tick) by about as much.
    burst_start = float(rng.uniform(140.0, 160.0))
    return ServiceConfig(
        seed=int(rng.integers(2**31)),
        dt_s=SV_DT_S,
        rate_per_s=0.2,
        work_scale=0.01,
        clients=4,
        diurnal_amplitude=0.5,
        diurnal_period_s=SV_TICKS * SV_DT_S,
        bursts=(BurstWindow(start_s=burst_start, end_s=burst_start + 4.0, multiplier=80.0),),
        ingest_capacity=8,
        backpressure="shed-oldest",
        drain_per_tick=1,
        overload_drain_per_tick=1,
        cap_levels=(85.0, 110.0),
        cap_change_every_s=20.0,
        telemetry_every_ticks=50,
        checkpoint_every_ticks=SV_CHECKPOINT_EVERY,
        fsync_every_ticks=25,
        retention=RetentionConfig(
            retain_trace_events=1024,
            session_window=4096,
            records_per_segment=512,
            keep_checkpoints=2,
            every_ticks=2 * SV_CHECKPOINT_EVERY,
        ),
    )


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def service(seed: int, tracer: Tracer, run_id: int, *, workdir: Path) -> Episode:
    """``MediatorService`` under an open-loop command stream in sim time,
    the ``run_id % SV_VARIANTS``-th one drawn from ``seed``."""
    started = time.perf_counter()
    variant = run_id % SV_VARIANTS
    config = service_config(seed, variant)
    if workdir.exists():
        shutil.rmtree(workdir)
    svc = MediatorService(config, workdir, trace_spill=True)
    admitted_counter = svc.metrics.counter("service.admit.admitted")
    checkpoint_counter = svc.metrics.counter("service.checkpoints")
    clock = RefClock(not tracer.enabled)
    setup_s = time.perf_counter() - started

    step_s: list[float] = []
    try:
        with tracer.episode(run_id):
            clock.mark()
            for tick in range(SV_TICKS):
                admitted = admitted_counter.value
                checkpoints = checkpoint_counter.value
                t = time.perf_counter()
                tracer.call("service.tick", svc.run_for_ticks, 1)
                step_s.append(time.perf_counter() - t)
                if tracer.enabled:
                    if checkpoint_counter.value != checkpoints:
                        kind = "checkpoint"
                    elif admitted_counter.value != admitted:
                        kind = "admit"
                    else:
                        kind = "plain"
                    tracer.relabel(tracer.last, f"service.tick.{kind}")
                if (tick + 1) % SV_MARK_EVERY == 0 or tick + 1 == SV_TICKS:
                    clock.mark()
    finally:
        svc.close()
    _, _, wall_s, wall_ref = _in_units(clock)
    step_ref = []
    if clock.enabled:
        scales = clock.scales()
        step_ref = [s / scales[k // SV_MARK_EVERY] for k, s in enumerate(step_s)]

    counters = svc.metrics.counters()
    mediator = svc.mediator
    # Every offered command ends with exactly one terminal reply, unless it
    # is still queued in the ingest buffer when the episode ends.
    replies: list[tuple[int, int]] = []
    nacked_submits = 0
    admitted_apps: list[str] = []
    retained = True
    for session in svc.sessions.sessions():
        state = session.state_dict()
        retained &= state["next_seq"] <= state["window_size"]
        for delivery in state["window"]:
            payload = delivery["payload"]
            if delivery["kind"] in _TERMINAL and "client_seq" in payload:
                replies.append((state["client"], payload["client_seq"]))
                if delivery["kind"] == "nack" and state["client"] != config.provisioner_client:
                    nacked_submits += 1
                if delivery["kind"] == "admitted":
                    admitted_apps.append(payload["app"])
    queued = svc.ingest.state_dict()
    in_flight = [(c["client"], c["client_seq"]) for c in queued["safety"] + queued["regular"]]
    offered = int(
        counters.get("service.ingest.accepted", 0)
        + counters.get("service.ingest.rejected", 0)
        + counters.get("service.ingest.deferred", 0)
        + counters.get("service.ingest.safety_accepted", 0)
    )
    answered = replies + in_flight
    by_client: dict[int, list[int]] = {}
    for client, seq in answered:
        by_client.setdefault(client, []).append(seq)
    one_reply_each = (
        retained
        and len(answered) == offered
        and all(sorted(seqs) == list(range(len(seqs))) for seqs in by_client.values())
    )
    try:
        breaches = verify_cap_invariant(mediator)
        cap_ok = True
    except ReproError:
        breaches, cap_ok = 0, False
    spill = workdir / "trace-spill.jsonl"
    events = (read_trace(spill) if spill.exists() else []) + list(svc.trace_bus.events)
    try:
        verify_trace(events)
        trace_ok = trace_hash(events) == svc.content_hash()
    except ReproError:
        trace_ok = False
    checks = {
        "safety-never-shed": counters.get("service.ingest.safety_shed", 0) == 0,
        "one-reply-per-command": one_reply_each,
        "cap-invariant": cap_ok,
        "trace-verified": trace_ok,
    }
    submits = offered - int(counters.get("service.ingest.safety_accepted", 0))
    throughputs = [_residency_throughput(mediator, app) for app in admitted_apps]
    quality = {
        "norm_throughput": sum(throughputs) / len(throughputs) if throughputs else 0.0,
        "breach_tick_frac": breaches / SV_TICKS,
        "shed_rate": nacked_submits / submits if submits else 0.0,
    }
    digest = _digest(
        {
            "trace": svc.content_hash(),
            "replies": sorted(replies),
            "throughputs": throughputs,
            "counters": {
                k: v
                for k, v in counters.items()
                if k.startswith(("service.ingest", "service.admit", "service.jobs"))
            },
        }
    )
    counts = {
        name: counters.get(name, 0.0)
        for name in (
            "service.ingest.accepted",
            "service.ingest.shed",
            "service.ingest.rejected",
            "service.admit.admitted",
            "service.admit.rejected",
            "service.jobs.completed",
            "service.sessions.deliveries",
            "service.checkpoints",
        )
    }
    counts["persistence.journal_bytes"] = float(_dir_bytes(svc.journal_dir))
    counts["persistence.checkpoint_bytes"] = float(_dir_bytes(svc.checkpoint_dir))
    counts["trace.events"] = float(len(events))
    counts.update(_mediator_counts([(mediator.metrics.counters(), mediator.profiler.report())]))
    shutil.rmtree(workdir)
    return Episode(
        setup_s=setup_s,
        setup_ref=_setup_units(clock, setup_s),
        wall_s=wall_s,
        wall_ref=wall_ref,
        steps=SV_TICKS,
        step_s=step_s,
        step_ref=step_ref,
        work=SV_TICKS,
        checks=checks,
        quality=quality,
        digest=digest,
        counts=counts,
        variant=variant,
    )


# ----------------------------------------------------------------- paper-mixes

#: The three golden coordination regimes: (name, policy, cap in W).
PM_REGIMES = (
    ("space", "app+res-aware", 100.0),
    ("time", "app+res-aware", 80.0),
    ("esd", "app+res+esd-aware", 80.0),
)
PM_DURATION_S = 10.0
PM_WARMUP_S = 4.0
PM_DT_S = 0.1


def paper_mixes(seed: int, tracer: Tracer, run_id: int) -> Episode:
    """Every Table II mix under the three golden regimes, learning on and a
    trace bus attached, in a seeded order with seeded calibration noise.
    ``run_mix_experiment`` audits each run with ``verify_cap_invariant``
    itself and raises on a violation."""
    started = time.perf_counter()
    rng = _rng(seed, 4)
    runs = [(mix, regime) for mix in all_mixes() for regime in PM_REGIMES]
    order = rng.permutation(len(runs)).tolist()
    run_seeds = rng.integers(2**31, size=len(runs)).tolist()
    plan = [
        (runs[j][0].mix_id, list(runs[j][0].profiles()), runs[j][1], run_seeds[k])
        for k, j in enumerate(order)
    ]
    clock = RefClock(not tracer.enabled)
    setup_s = time.perf_counter() - started

    outputs = []
    with tracer.episode(run_id):
        clock.mark()
        for mix_id, apps, (regime, policy, cap), run_seed in plan:
            bus = TraceBus()
            result = tracer.call(
                f"simulation.run_mix.{regime}",
                run_mix_experiment,
                apps,
                policy,
                cap,
                mix_id=mix_id,
                duration_s=PM_DURATION_S,
                warmup_s=PM_WARMUP_S,
                dt_s=PM_DT_S,
                seed=run_seed,
                trace_bus=bus,
            )
            outputs.append((bus, result))
            clock.mark()
    step_s, step_ref, wall_s, wall_ref = _in_units(clock)

    ticks = round((PM_DURATION_S + PM_WARMUP_S) / PM_DT_S)
    trace_ok = True
    hashes = []
    for bus, _ in outputs:
        try:
            verify_trace(bus.events)
        except ReproError:
            trace_ok = False
        hashes.append(trace_hash(bus.events))
    results = [result for _, result in outputs]
    per_run = [
        sum(r.normalized_throughput.values()) / len(r.normalized_throughput) for r in results
    ]
    breaches = sum(r.fault_stats.breach_ticks for r in results)
    quality = {
        "norm_throughput": sum(per_run) / len(per_run),
        "breach_tick_frac": breaches / (len(results) * ticks),
    }
    counts = _mediator_counts((r.metrics["counters"], r.metrics["profile"]) for r in results)
    counts["trace.events"] = float(sum(len(bus.events) for bus, _ in outputs))
    digest = _digest(
        [
            (mix_id, regime[0], run_seed, h, r.normalized_throughput, r.mean_wall_power_w)
            for (mix_id, _, regime, run_seed), h, r in zip(plan, hashes, results)
        ]
    )
    return Episode(
        setup_s=setup_s,
        setup_ref=_setup_units(clock, setup_s),
        wall_s=wall_s,
        wall_ref=wall_ref,
        steps=len(plan),
        step_s=step_s,
        step_ref=step_ref,
        work=len(plan) * ticks,
        checks={"trace-verified": trace_ok},
        quality=quality,
        digest=digest,
        counts=counts,
    )
