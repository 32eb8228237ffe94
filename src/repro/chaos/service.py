"""Service-mode chaos: client churn, ingest overload, mid-stream kills.

The scenario ISSUE 6 demands: an open-loop client population streams
commands at a :class:`~repro.service.loop.MediatorService` while clients
churn (disconnect/reconnect on a seeded schedule), burst windows push the
ingest buffer into overload, and the process is killed mid-stream with a
torn journal tail. :func:`run_service_soak` executes that run *and* an
uninterrupted baseline with the identical churn schedule, then enforces
the service invariants (each failure raises
:class:`~repro.errors.ChaosError` with the violating numbers):

1. **Cap safety** - the recovered mediator's full timeline passes
   :func:`~repro.core.simulation.verify_cap_invariant`: wall power at or
   under the cap at every tick, any flagged breach accounted.
2. **Safety lane integrity** - zero ``service.ingest.safety_shed``, every
   scheduled cap change applied; the report's ``shed_commands`` counts the
   regular arrivals shed instead.
3. **Determinism through crashes** - every sim-side service counter
   (ingest dispositions, admissions, deliveries, replays, completions)
   matches the uninterrupted baseline exactly, and the stitched streaming
   trace hashes identically to the baseline's.
4. **Gap-free replay** - replay verification is built into
   :meth:`~repro.service.sessions.ClientSession.reconnect` (a gap raises
   mid-run); the soak additionally requires that churn actually exercised
   it (``service.sessions.replayed`` > 0).
5. **Bounded footprint** - retained trace events, journal segments, and
   on-disk checkpoints all end under their configured bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.simulation import verify_cap_invariant
from repro.chaos.harness import kill_schedule
from repro.errors import ChaosError, ConfigurationError, SimulationError
from repro.persistence.journal import list_segments
from repro.service.loop import MediatorService, ServiceConfig, ServiceKilled

__all__ = [
    "ChurnSchedule",
    "ServiceSoakReport",
    "run_service_soak",
    "service_kill_hook",
]

#: Sim-side counters that must be identical between a crash-recovered run
#: and its uninterrupted baseline (execution-side counters - restarts,
#: replayed ticks, checkpoints, retention - legitimately differ).
DETERMINISTIC_COUNTERS = (
    "service.ingest.accepted",
    "service.ingest.rejected",
    "service.ingest.deferred",
    "service.ingest.shed",
    "service.ingest.safety_accepted",
    "service.ingest.safety_shed",
    "service.admit.admitted",
    "service.admit.rejected",
    "service.commands.cap_applied",
    "service.jobs.completed",
    "service.jobs.cancelled",
    "service.overload.entered",
    "service.overload.exited",
    "service.sessions.deliveries",
    "service.sessions.disconnects",
    "service.sessions.reconnects",
    "service.sessions.replayed",
)


class ChurnSchedule:
    """A seeded, tick-keyed client disconnect/reconnect schedule.

    Purely a function of its constructor arguments: the service consults it
    inside the deterministic tick pipeline, so the same schedule drives the
    baseline and the chaos run (and crash re-execution) identically.

    Args:
        clients: Client ids ``0..clients-1`` are eligible to churn.
        total_ticks: Horizon the events are scattered over.
        events: Disconnect/reconnect pairs to schedule.
        seed: Chaos seed (independent of the simulation's RNG).

    Each disconnect lasts 20 to 200 ticks.
    """

    def __init__(
        self,
        *,
        clients: int,
        total_ticks: int,
        events: int,
        seed: int,
    ) -> None:
        if clients < 1:
            raise ConfigurationError(f"need at least one client, got {clients}")
        self._by_tick: dict[int, list[tuple[str, int]]] = {}
        rng = np.random.default_rng(seed)
        for _ in range(max(0, events)):
            client = int(rng.integers(clients))
            start = int(rng.integers(1, max(2, total_ticks)))
            off = int(rng.integers(20, 201))
            self._by_tick.setdefault(start, []).append(("disconnect", client))
            self._by_tick.setdefault(start + off, []).append(("connect", client))
        # Deterministic intra-tick order: connects first (so a same-tick
        # disconnect of the same client wins), then by client id.
        for actions in self._by_tick.values():
            actions.sort(key=lambda a: (a[0] != "connect", a[1]))

    def at(self, tick: int) -> list[tuple[str, int]]:
        return self._by_tick.get(tick, [])


def service_kill_hook(kill_ticks: list[int]) -> Callable[[int], None]:
    """A tick hook raising :class:`ServiceKilled` once per scheduled tick.

    Fired kills are consumed, so crash re-execution sailing back past a
    kill tick does not die again (mirroring the supervisor's hooks).
    """
    remaining = sorted(kill_ticks)

    def hook(tick: int) -> None:
        if remaining and tick == remaining[0]:
            fired = remaining.pop(0)
            raise ServiceKilled(f"chaos kill at tick {fired}")

    return hook


@dataclass(frozen=True)
class ServiceSoakReport:
    """Outcome of one service soak (invariants already enforced).

    Attributes:
        ticks: Sim ticks both runs completed.
        kill_ticks: Where the chaos run was killed.
        restarts: Warm restarts the chaos run survived.
        replayed_ticks: Ticks re-executed across all recoveries.
        breach_ticks: Flagged (responded-to) cap breach ticks.
        shed_commands: Regular commands shed under overload (identical in
            both runs by invariant 3).
        replayed_deliveries: Deliveries replayed to reconnecting clients.
        trace_hash: The (identical) content hash of both runs' traces.
        counters: The chaos run's full service counter map.
    """

    ticks: int
    kill_ticks: tuple[int, ...]
    restarts: int
    replayed_ticks: int
    breach_ticks: int
    shed_commands: int
    replayed_deliveries: int
    trace_hash: str
    counters: dict[str, float]


def _counter(counters: dict[str, float], name: str) -> float:
    return float(counters.get(name, 0.0))


def run_service_soak(
    config: ServiceConfig,
    workdir: str | Path,
    *,
    total_ticks: int,
    kills: int = 2,
    churn_events: int = 8,
    chaos_seed: int = 0,
    tear_journal_bytes: int = 256,
) -> ServiceSoakReport:
    """Run baseline + chaos service runs and enforce the soak invariants.

    Args:
        config: The service recipe both runs share.
        workdir: Scratch root; ``baseline/`` and ``chaos/`` land inside.
        total_ticks: Sim ticks to run.
        kills: Mid-stream process kills to inject.
        churn_events: Client disconnect/reconnect pairs to schedule.
        chaos_seed: Seed for kill ticks and churn (never the sim's RNG).
        tear_journal_bytes: Un-fsynced journal tail destroyed per crash.

    Returns:
        The :class:`ServiceSoakReport`; raises :class:`ChaosError` on any
        invariant violation.
    """
    workdir = Path(workdir)
    churn = ChurnSchedule(
        clients=config.clients,
        total_ticks=total_ticks,
        events=churn_events,
        seed=chaos_seed,
    )
    kill_ticks = kill_schedule(total_ticks, kills, chaos_seed)

    baseline = MediatorService(config, workdir / "baseline", churn=churn)
    baseline.run_for_ticks(total_ticks)
    baseline.close()
    base_hash = baseline.content_hash()
    base_counters = dict(baseline.metrics.counters())

    chaos = MediatorService(
        config,
        workdir / "chaos",
        churn=churn,
        tick_hook=service_kill_hook(kill_ticks),
        tear_journal_bytes_on_crash=tear_journal_bytes,
    )
    chaos.run_for_ticks(total_ticks)
    chaos.close()
    chaos_hash = chaos.content_hash()
    counters = dict(chaos.metrics.counters())

    if chaos.tick != total_ticks or baseline.tick != total_ticks:
        raise ChaosError(
            f"runs fell short: baseline {baseline.tick}, chaos {chaos.tick}, "
            f"wanted {total_ticks}"
        )
    restarts = int(_counter(counters, "service.restarts"))
    if kill_ticks and restarts != len(kill_ticks):
        raise ChaosError(
            f"scheduled {len(kill_ticks)} kills but the service recorded "
            f"{restarts} restarts"
        )

    # 1. Cap safety over the full recovered timeline.
    try:
        breach_ticks = verify_cap_invariant(chaos.mediator)
        verify_cap_invariant(baseline.mediator)
    except SimulationError as exc:
        raise ChaosError(f"cap invariant violated: {exc}") from None

    # 2. The safety lane was never shed; cap changes all landed.
    if _counter(counters, "service.ingest.safety_shed") != 0:
        raise ChaosError(
            f"{_counter(counters, 'service.ingest.safety_shed'):.0f} cap-safety "
            "commands were shed"
        )
    applied = _counter(counters, "service.commands.cap_applied")
    accepted_safety = _counter(counters, "service.ingest.safety_accepted")
    if applied != accepted_safety:
        raise ChaosError(
            f"{accepted_safety:.0f} cap commands entered the safety lane but "
            f"only {applied:.0f} were applied"
        )
    sheds = _counter(counters, "service.ingest.shed")

    # 3. Determinism: sim-side counters and the stitched trace.
    for name in DETERMINISTIC_COUNTERS:
        base_v, chaos_v = _counter(base_counters, name), _counter(counters, name)
        if base_v != chaos_v:
            raise ChaosError(
                f"counter {name} diverged: baseline {base_v:.0f}, "
                f"chaos {chaos_v:.0f}"
            )
    if chaos_hash != base_hash:
        raise ChaosError(
            f"stitched trace hash {chaos_hash[:12]} != baseline {base_hash[:12]}"
        )

    # 4. Replay was exercised (gaps would have raised mid-run).
    replayed = _counter(counters, "service.sessions.replayed")
    if churn_events > 0 and replayed == 0:
        raise ChaosError("churn was scheduled but no deliveries were replayed")

    # 5. Bounded footprint.
    retention = config.retention
    for svc, label in ((baseline, "baseline"), (chaos, "chaos")):
        bus = svc.trace_bus
        retained = getattr(bus, "retained_events", 0)
        # One compaction pass runs per retention cadence; between passes the
        # window may grow by everything emitted since, bounded by cadence.
        slack = retention.every_ticks * 64
        if retained > retention.retain_trace_events + slack:
            raise ChaosError(
                f"{label}: {retained} trace events retained, bound "
                f"{retention.retain_trace_events} (+{slack} cadence slack)"
            )
        segments = len(list_segments(svc.journal_dir))
        segment_bound = (
            2
            + (retention.every_ticks * 8) // retention.records_per_segment
            + (total_ticks % retention.every_ticks * 8) // retention.records_per_segment
        )
        if segments > segment_bound:
            raise ChaosError(
                f"{label}: {segments} journal segments on disk, bound {segment_bound}"
            )
        checkpoints = len(sorted(svc.checkpoint_dir.glob("ckpt-*.json")))
        if checkpoints > retention.keep_checkpoints + 1:
            raise ChaosError(
                f"{label}: {checkpoints} checkpoints on disk, bound "
                f"{retention.keep_checkpoints + 1}"
            )

    return ServiceSoakReport(
        ticks=total_ticks,
        kill_ticks=tuple(kill_ticks),
        restarts=restarts,
        replayed_ticks=int(_counter(counters, "service.replayed_ticks")),
        breach_ticks=breach_ticks,
        shed_commands=int(sheds),
        replayed_deliveries=int(replayed),
        trace_hash=chaos_hash,
        counters=counters,
    )
