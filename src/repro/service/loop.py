"""The service event loop: open-loop ingest around a supervised mediator.

:class:`MediatorService` runs the mediator indefinitely under open-loop
traffic. Each sim-time tick executes a fixed pipeline:

1. **kill hook** - chaos injection point (mirrors the supervisor's
   ``tick_hook``; fires before any tick work so a crash never tears a tick);
2. **churn** - scheduled client disconnects/reconnects, with gap-checked
   delivery replay on every reconnect;
3. **offers** - the provisioner's cap schedule plus the population's due
   arrivals are offered to the ingest buffer, where backpressure disposes
   of them (accept / reject / shed-oldest / defer), every outcome counted
   and traced;
4. **overload posture** - occupancy hysteresis; while overloaded the
   regular drain shrinks so cap-safety commands strictly outrank arrivals;
5. **drain** - the cap-safety lane fully, then a bounded slice of the
   regular lane; each command is applied to the mediator and acknowledged
   to its client;
6. **mediate** - one mediator tick (allocation, actuation, accounting);
7. **publish** - completion deliveries and periodic telemetry broadcasts;
8. **durability** - the tick count is journaled; on the checkpoint cadence
   a checkpoint lands through the shared
   :class:`~repro.persistence.store.RunStore` (the mediator and the client
   sessions, whose deliveries since the previous checkpoint go to the
   history log, plus the service's own state under ``"service"``:
   population cursor, ingest buffer, pending offers, metrics), and
   retention compacts everything behind it.

**Crash model.** A :class:`ServiceKilled` raised by the kill hook destroys
the in-flight process state; the journal keeps only what was fsynced (a
configurable tail tear simulates lost buffered writes). Recovery follows
the store's one rule: restore the newest marked checkpoint, then
**re-execute full ticks** - commands are never journaled - up to the tick count
the durable journal reaches, with the journal down. The offer stream,
churn, backpressure decisions, and deliveries are all deterministic
functions of the restored state, so re-execution regenerates the identical
stream the crash destroyed. The stitched trace therefore hashes
identically to an uninterrupted run, client delivery sequences continue
gap-free, and service metrics counters end exactly where the uninterrupted
run's would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.core.mediator import PowerMediator
from repro.core.policies import POLICY_NAMES
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    ReproError,
    SchedulingError,
    ServiceError,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.streaming import StreamingTraceBus
from repro.observability.trace import TraceBus
from repro.persistence.checkpoint import RunRecipe
from repro.persistence.store import RunStore
from repro.schema import Validator
from repro.service.commands import (
    CancelJob,
    Command,
    SetCapCommand,
    SubmitJob,
    command_from_dict,
    command_to_dict,
    is_cap_safety,
)
from repro.service.ingest import ACCEPTED, DEFERRED, REJECTED, IngestBuffer
from repro.service.retention import RetentionConfig, RetentionManager
from repro.service.sessions import SessionRegistry
from repro.workloads.population import BurstWindow, OpenLoopPopulation

__all__ = ["MediatorService", "ServiceConfig", "ServiceKilled"]

_VALID = Validator(CheckpointError)

#: Cores reserved per admitted job, so a 12-core server hosts four at once.
GROUP_WIDTH = 3

#: The service's own part of a checkpoint (see ``MediatorService._checkpoint``):
#: each key and the check its value must pass before recovery reads it.
_STATE_CHECKS = {
    "population": _VALID.as_dict,
    "ingest": _VALID.as_dict,
    "pending": _VALID.as_list,
    "outstanding": _VALID.as_dict,
    "client_seqs": _VALID.as_dict,
    "cap_cursor": _VALID.as_int,
    "metrics": _VALID.as_dict,
}


class ServiceKilled(ReproError):
    """The service process died mid-stream (raised by chaos injection)."""


@dataclass(frozen=True)
class ServiceConfig:
    """Everything that defines one service run (the service's recipe).

    Attributes are grouped by pipeline stage; every field is validated at
    construction with a one-line :class:`~repro.errors.ConfigurationError`
    so the CLI's exit-2 contract holds.
    """

    # --- mediation
    policy: str = "app+res-aware"
    p_cap_w: float = 100.0
    use_oracle_estimates: bool = True
    dt_s: float = 0.1
    seed: int = 0
    # --- offered load (open loop)
    rate_per_s: float = 0.05
    clients: int = 6
    diurnal_amplitude: float = 0.3
    diurnal_period_s: float = 600.0
    bursts: tuple[BurstWindow, ...] = ()
    work_scale: float = 1.0
    # --- ingest and backpressure
    ingest_capacity: int = 32
    backpressure: str = "shed-oldest"
    drain_per_tick: int = 2
    overload_drain_per_tick: int = 1
    # --- provisioner cap schedule (in-band cap-safety commands)
    cap_levels: tuple[float, ...] = ()
    cap_change_every_s: float = 60.0
    # --- subscription stream
    telemetry_every_ticks: int = 10
    # --- durability and retention
    checkpoint_every_ticks: int = 200
    fsync_every_ticks: int = 25
    retention: RetentionConfig = field(default_factory=RetentionConfig)

    def __post_init__(self) -> None:
        if self.policy not in POLICY_NAMES:
            raise ConfigurationError(
                f"unknown policy {self.policy!r} (choose from {', '.join(POLICY_NAMES)})"
            )
        if not (math.isfinite(self.p_cap_w) and self.p_cap_w > 0):
            raise ConfigurationError(f"cap must be finite and positive, got {self.p_cap_w!r}")
        if not (math.isfinite(self.dt_s) and self.dt_s > 0):
            raise ConfigurationError(f"dt_s must be finite and positive, got {self.dt_s!r}")
        if self.clients < 1:
            raise ConfigurationError(f"need at least one client, got {self.clients}")
        if self.drain_per_tick < 1:
            raise ConfigurationError(
                f"drain_per_tick must be >= 1, got {self.drain_per_tick}"
            )
        if self.overload_drain_per_tick < 0:
            raise ConfigurationError(
                f"overload_drain_per_tick must be >= 0, got {self.overload_drain_per_tick}"
            )
        for cap in self.cap_levels:
            if not (math.isfinite(cap) and cap > 0):
                raise ConfigurationError(
                    f"cap levels must be finite and positive, got {cap!r}"
                )
        if not (math.isfinite(self.cap_change_every_s) and self.cap_change_every_s > 0):
            raise ConfigurationError(
                f"cap_change_every_s must be finite and positive, "
                f"got {self.cap_change_every_s!r}"
            )
        if self.telemetry_every_ticks < 1:
            raise ConfigurationError(
                f"telemetry_every_ticks must be >= 1, got {self.telemetry_every_ticks}"
            )
        if self.checkpoint_every_ticks < 1:
            raise ConfigurationError(
                f"checkpoint_every_ticks must be >= 1, got {self.checkpoint_every_ticks}"
            )
        # Population, ingest, and retention parameters validate themselves
        # at construction time; build them eagerly so a bad config fails
        # here, at the CLI boundary, not ticks into a run.
        self.make_population()
        IngestBuffer(
            capacity=self.ingest_capacity,
            policy=self.backpressure,
            metrics=MetricsRegistry(),
        )

    @property
    def provisioner_client(self) -> int:
        """Pseudo-client id the cap schedule's commands are attributed to."""
        return self.clients

    def recipe(self) -> RunRecipe:
        """The mediator-side recipe this service wraps."""
        return RunRecipe(
            policy=self.policy,
            p_cap_w=self.p_cap_w,
            use_oracle_estimates=self.use_oracle_estimates,
            dt_s=self.dt_s,
            seed=self.seed,
        )

    def make_population(self) -> OpenLoopPopulation:
        return OpenLoopPopulation(
            base_rate_per_s=self.rate_per_s,
            clients=self.clients,
            seed=self.seed,
            diurnal_amplitude=self.diurnal_amplitude,
            diurnal_period_s=self.diurnal_period_s,
            bursts=self.bursts,
            work_scale=self.work_scale,
        )


def _decode(part: str, codec: Callable, value):
    """Run one part's codec on its checkpointed value. A damaged inner key
    or value ends in one :class:`~repro.errors.CheckpointError` line naming
    the part, never a traceback from inside the codec."""
    try:
        return codec(value)
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint.{part}: does not restore ({type(exc).__name__}: {exc})"
        ) from None


class MediatorService:
    """The long-running, crash-recoverable service facade.

    Args:
        config: The run's :class:`ServiceConfig`.
        workdir: Durability root; the journal lands in ``workdir/journal``
            and checkpoints, with their history log, in
            ``workdir/checkpoints`` (see
            :class:`~repro.persistence.store.RunStore`).
        churn: Optional deterministic churn schedule - any object with
            ``at(tick) -> list[("connect" | "disconnect", client)]``. Must
            be a pure function of the tick so crash re-execution
            regenerates identical churn.
        tick_hook: Optional callable invoked with the tick number before
            any tick work; raising :class:`ServiceKilled` simulates a
            crash at that boundary (the chaos harness's kill schedules).
        tear_journal_bytes_on_crash: On each crash, destroy up to this many
            bytes of the journal's un-fsynced tail.
        trace_spill: Also spill the streaming trace's evicted events to
            ``workdir/trace-spill.jsonl``.
    """

    def __init__(
        self,
        config: ServiceConfig,
        workdir: str | Path,
        *,
        churn=None,
        tick_hook: Callable[[int], None] | None = None,
        tear_journal_bytes_on_crash: int = 0,
        trace_spill: bool = False,
    ) -> None:
        self.config = config
        workdir = Path(workdir)
        self._churn = churn
        self._tick_hook = tick_hook
        self._bus: TraceBus = StreamingTraceBus(
            retain_events=config.retention.retain_trace_events,
            sink_path=(workdir / "trace-spill.jsonl") if trace_spill else None,
        )
        self._recipe = config.recipe()
        self._cap_every_ticks = max(1, round(config.cap_change_every_s / config.dt_s))

        self.metrics = MetricsRegistry()
        self._mediator: PowerMediator = self._recipe.build()
        self._mediator.ensure_plan()  # an empty open-loop server still ticks
        self._mediator.attach_trace_bus(self._bus)
        self._population = config.make_population()
        self._ingest = self._make_ingest()
        self._sessions = self._make_sessions()
        self._retention = RetentionManager(config.retention, metrics=self.metrics)
        # Deterministic service state that travels in the checkpoint:
        self._tick = 0
        self._cap_cursor = 0
        self._client_seqs = {c: 0 for c in range(config.clients + 1)}
        self._pending: list[Command] = []  # deferred ("blocked") offers
        self._outstanding: dict[str, int] = {}  # running app -> client
        # Execution-side state (does NOT travel):
        self._last_retention_tick = 0
        # Pin the zero counters the soak asserts on, so "never happened"
        # is a recorded 0, not an absent key.
        self.metrics.counter("service.ingest.shed")
        self.metrics.counter("service.ingest.safety_shed")
        self.metrics.counter("service.restarts")

        self._store = RunStore(
            workdir,
            self._recipe,
            owner="service",
            bus=self._bus,
            fsync_every_ticks=config.fsync_every_ticks,
            records_per_segment=config.retention.records_per_segment,
            tear_journal_bytes_on_crash=tear_journal_bytes_on_crash,
        )
        self._checkpoint()  # tick 0: recovery always has an anchor

    # ------------------------------------------------------------- accessors

    @property
    def tick(self) -> int:
        """Completed ticks (equals the mediator's tick count)."""
        return self._tick

    @property
    def mediator(self) -> PowerMediator:
        return self._mediator

    @property
    def trace_bus(self) -> TraceBus:
        return self._bus

    @property
    def sessions(self) -> SessionRegistry:
        return self._sessions

    @property
    def ingest(self) -> IngestBuffer:
        return self._ingest

    @property
    def journal_dir(self) -> Path:
        return self._store.journal_dir

    @property
    def checkpoint_dir(self) -> Path:
        return self._store.checkpoint_dir

    def content_hash(self) -> str:
        return self._bus.content_hash()

    def _make_ingest(self) -> IngestBuffer:
        return IngestBuffer(
            capacity=self.config.ingest_capacity,
            policy=self.config.backpressure,
            metrics=self.metrics,
        )

    def _make_sessions(self) -> SessionRegistry:
        # One extra session for the provisioner's cap acknowledgements.
        return SessionRegistry(
            clients=self.config.clients + 1,
            window=self.config.retention.session_window,
            metrics=self.metrics,
        )

    # --------------------------------------------------------------- running

    def run_for_ticks(self, ticks: int) -> None:
        """Advance the service ``ticks`` sim-time ticks, recovering from any
        :class:`ServiceKilled` the kill hook raises along the way."""
        if ticks < 1:
            raise ConfigurationError(f"ticks must be >= 1, got {ticks}")
        target = self._tick + ticks
        while self._tick < target:
            try:
                self._one_tick()
            except ServiceKilled:
                self._handle_crash()

    def close(self) -> None:
        """Flush and close the journal (and trace spill) cleanly."""
        if self._store.journal is not None:
            self._store.journal.close()
        if isinstance(self._bus, StreamingTraceBus):
            self._bus.close_sink()

    # ---------------------------------------------------------- the pipeline

    def _one_tick(self) -> None:
        tick = self._tick
        if self._tick_hook is not None:
            self._tick_hook(tick)  # chaos: may raise ServiceKilled
        now = self._mediator.server.now_s
        self._bus.begin_tick(tick, now)

        self._apply_churn(tick)
        offered = self._collect_offers(tick, now)
        self._offer_all(tick, offered)
        self._refresh_overload()
        self._drain(tick)
        self._mediator.step()
        self._publish(tick)

        self._tick += 1
        store = self._store
        if store.journal is not None:  # down while recovery re-executes
            store.journal.append_tick(self._tick)
            if self._tick % self.config.checkpoint_every_ticks == 0:
                self._checkpoint()
                self._retention.prune_checkpoints(store.checkpoint_dir)
                # Retention anchors to the checkpoint just written, on its
                # own (coarser) cadence.
                due = self._tick - self._last_retention_tick
                if due >= self.config.retention.every_ticks:
                    self._last_retention_tick = self._tick
                    self._retention.run(
                        bus=self._bus if isinstance(self._bus, StreamingTraceBus) else None,
                        journal_dir=store.journal_dir,
                        checkpoint_dir=store.checkpoint_dir,
                        safe_seq=store.safe_seq,
                        safe_mark=store.safe_mark,
                    )
        self.metrics.gauge("service.ticks").set(float(self._tick))

    def _apply_churn(self, tick: int) -> None:
        if self._churn is None:
            return
        for action, client in self._churn.at(tick):
            session = self._sessions.session(client)
            if action == "disconnect":
                if session.connected:
                    self._sessions.disconnect(client)
                    self._bus.emit("client-disconnect", {"client": client})
            elif action == "connect":
                if not session.connected:
                    missed = self._sessions.reconnect(client)
                    self._bus.emit("client-connect", {"client": client})
                    if missed:
                        self._bus.emit(
                            "client-replay",
                            {
                                "client": client,
                                "from_seq": missed[0].seq,
                                "count": len(missed),
                            },
                        )
            else:
                raise ServiceError(f"unknown churn action {action!r}")

    def _collect_offers(self, tick: int, now: float) -> list[Command]:
        offered: list[Command] = []
        if self.config.cap_levels and tick > 0 and tick % self._cap_every_ticks == 0:
            cap = self.config.cap_levels[self._cap_cursor % len(self.config.cap_levels)]
            self._cap_cursor += 1
            provisioner = self.config.provisioner_client
            offered.append(
                SetCapCommand(
                    client=provisioner,
                    client_seq=self._next_client_seq(provisioner),
                    p_cap_w=cap,
                )
            )
        for offer in self._population.pull_due(now):
            offered.append(
                SubmitJob(
                    client=offer.client,
                    client_seq=self._next_client_seq(offer.client),
                    profile=offer.profile,
                )
            )
        return offered

    def _next_client_seq(self, client: int) -> int:
        seq = self._client_seqs[client]
        self._client_seqs[client] = seq + 1
        return seq

    def _offer_all(self, tick: int, offered: list[Command]) -> None:
        # Deferred ("blocked") offers from earlier ticks re-offer first:
        # their clients have been waiting longest.
        carryover, self._pending = self._pending, []
        for command in [*carryover, *offered]:
            disposition, victim = self._ingest.offer(command)
            if disposition == DEFERRED:
                self._pending.append(command)
            elif disposition == REJECTED:
                self._bus.emit(
                    "ingest-reject",
                    {"client": command.client, "client_seq": command.client_seq},
                )
                self._sessions.deliver(
                    command.client,
                    tick,
                    "nack",
                    {"client_seq": command.client_seq, "reason": "ingest-full"},
                )
            else:
                assert disposition == ACCEPTED
            if victim is not None:
                if is_cap_safety(victim):  # structurally impossible; prove it
                    self.metrics.counter("service.ingest.safety_shed").inc()
                    raise ServiceError(
                        "backpressure shed a cap-safety command; the safety "
                        "lane must never be shed"
                    )
                self._bus.emit(
                    "ingest-shed",
                    {"client": victim.client, "client_seq": victim.client_seq},
                )
                self._sessions.deliver(
                    victim.client,
                    tick,
                    "nack",
                    {"client_seq": victim.client_seq, "reason": "shed"},
                )
        self.metrics.gauge("service.ingest.pending_offers").set(float(len(self._pending)))

    def _refresh_overload(self) -> None:
        transition = self._ingest.refresh_overload()
        if transition == "enter":
            self._bus.emit("overload-enter", {"occupancy": self._ingest.occupancy})
        elif transition == "exit":
            self._bus.emit("overload-exit", {"occupancy": self._ingest.occupancy})
        self.metrics.gauge("service.ingest.occupancy").set(float(self._ingest.occupancy))
        self.metrics.histogram("service.ingest.occupancy").observe(
            float(self._ingest.occupancy)
        )

    def _drain(self, tick: int) -> None:
        # Cap-safety first, always all of it: the budget invariant must not
        # wait behind arrivals, no matter how saturated ingest is.
        for command in self._ingest.pop_safety():
            assert isinstance(command, SetCapCommand)
            self._mediator.set_power_cap(command.p_cap_w)
            self.metrics.counter("service.commands.cap_applied").inc()
            self._sessions.deliver(
                command.client,
                tick,
                "cap-applied",
                {"client_seq": command.client_seq, "p_cap_w": command.p_cap_w},
            )
        limit = (
            self.config.overload_drain_per_tick
            if self._ingest.overloaded
            else self.config.drain_per_tick
        )
        for command in self._ingest.pop_regular(limit):
            if isinstance(command, SubmitJob):
                self._admit(tick, command)
            elif isinstance(command, CancelJob):
                self._cancel(tick, command)
            else:  # pragma: no cover - the safety lane owns SetCapCommand
                raise ServiceError(f"cap-safety command in the regular lane: {command!r}")

    def _admit(self, tick: int, command: SubmitJob) -> None:
        try:
            self._mediator.add_application(command.profile, group_width=GROUP_WIDTH)
        except SchedulingError:
            self.metrics.counter("service.admit.rejected").inc()
            self._sessions.deliver(
                command.client,
                tick,
                "nack",
                {"client_seq": command.client_seq, "reason": "server-full"},
            )
        else:
            self.metrics.counter("service.admit.admitted").inc()
            spec = command.adversary_spec()
            if spec is not None:
                # Idempotent for an identical spec, so re-execution after a
                # recovery can re-drive the admission without tripping it.
                self._mediator.register_adversary(spec)
                self.metrics.counter("service.admit.adversarial").inc()
            self._outstanding[command.profile.name] = command.client
            self._sessions.deliver(
                command.client,
                tick,
                "admitted",
                {"client_seq": command.client_seq, "app": command.profile.name},
            )

    def _cancel(self, tick: int, command: CancelJob) -> None:
        if command.app in self._outstanding and command.app in self._mediator.managed_apps():
            self._mediator.remove_application(command.app)
            self._outstanding.pop(command.app, None)
            self.metrics.counter("service.jobs.cancelled").inc()
            self._sessions.deliver(
                command.client,
                tick,
                "cancelled",
                {"client_seq": command.client_seq, "app": command.app},
            )
        else:
            self._sessions.deliver(
                command.client,
                tick,
                "nack",
                {"client_seq": command.client_seq, "reason": "unknown-app"},
            )

    def _publish(self, tick: int) -> None:
        if self._outstanding:
            managed = set(self._mediator.managed_apps())
            for app in [a for a in self._outstanding if a not in managed]:
                client = self._outstanding.pop(app)
                self.metrics.counter("service.jobs.completed").inc()
                self._sessions.deliver(client, tick, "completed", {"app": app})
        if tick % self.config.telemetry_every_ticks == 0:
            self._sessions.broadcast(
                tick,
                "telemetry",
                {
                    "tick": tick,
                    "managed": len(self._mediator.managed_apps()),
                    "occupancy": self._ingest.occupancy,
                    "connected": self._sessions.connected_count(),
                },
            )

    # ------------------------------------------------------------ durability

    def _checkpoint(self) -> None:
        self._store.checkpoint(
            self._mediator,
            {
                "population": self._population.state_dict(),
                "ingest": self._ingest.state_dict(),
                "pending": [command_to_dict(c) for c in self._pending],
                "outstanding": dict(self._outstanding),
                "client_seqs": {str(c): s for c, s in self._client_seqs.items()},
                "cap_cursor": self._cap_cursor,
                "metrics": self.metrics.to_json(),
            },
            self._sessions,
        )
        self.metrics.counter("service.checkpoints").inc()

    # -------------------------------------------------------------- recovery

    def _handle_crash(self) -> None:
        while True:
            self._store.crash()
            self.metrics.counter("service.restarts").inc()
            self._bus.emit_meta("crash", {"tick": self._tick})
            try:
                self._recover()
                return
            except ServiceKilled:
                continue  # killed again while re-executing; recover anew

    def _recover(self) -> None:
        restarts = self.metrics.counter("service.restarts").value
        restored = self._store.recover()
        mediator, state = restored.mediator, restored.state
        where = "checkpoint.service"
        for key, check in _STATE_CHECKS.items():
            check(_VALID.require(state, key, where), f"{where}.{key}")
        self._mediator = mediator
        self._mediator.ensure_plan()  # tick-0 checkpoints predate any plan
        # Restore every piece of deterministic state at the checkpoint tick;
        # the restart count alone survives the rewind, so it counts every
        # kill, one inside a recovery included.
        self.metrics = _decode("service.metrics", MetricsRegistry.from_json, state["metrics"])
        self.metrics.counter("service.restarts").reset(restarts)
        self._population = self.config.make_population()
        _decode("service.population", self._population.load_state_dict, state["population"])
        self._ingest = self._make_ingest()
        _decode("service.ingest", self._ingest.load_state_dict, state["ingest"])
        self._sessions = self._make_sessions()
        _decode("sessions", self._sessions.load_state_dict, restored.sessions)
        self._retention = RetentionManager(self.config.retention, metrics=self.metrics)
        self._pending = _decode(
            "service.pending", lambda pending: [command_from_dict(c) for c in pending],
            state["pending"],
        )
        self._outstanding = _decode(
            "service.outstanding", lambda d: {str(k): int(v) for k, v in d.items()},
            state["outstanding"],
        )
        self._client_seqs = _decode(
            "service.client_seqs", lambda d: {int(k): int(v) for k, v in d.items()},
            state["client_seqs"],
        )
        self._cap_cursor = int(state["cap_cursor"])
        self._tick = mediator.tick_count

        # Re-execute exactly the span the durable journal holds, with the
        # journal down, then resume journaling at the next fresh sequence.
        replay_ticks = restored.reach - self._tick
        for _ in range(replay_ticks):
            self._one_tick()
        self._store.reopen()
        self.metrics.counter("service.replayed_ticks").inc(replay_ticks)
        self._checkpoint()  # forward progress: repeated crashes never loop
        self._retention.prune_checkpoints(self.checkpoint_dir)
