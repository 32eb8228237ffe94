"""The discrete-time server engine tying the substrate together.

:class:`SimulatedServer` owns one of everything from this package - topology,
power model, performance model, RAPL interface, heartbeat monitor, sleep
controller and knob controller - and advances them coherently one tick at a
time. Policies and coordinators interact with it exactly as the paper's
framework interacts with a Linux box:

* **admit / remove** applications (which reserves/releases core groups and
  registers heartbeats) - the arrival (E2) and departure (E3) substrate;
* **actuate** knobs through :attr:`SimulatedServer.knobs`;
* **observe** power through :attr:`SimulatedServer.rapl` and performance
  through :attr:`SimulatedServer.heartbeats`;
* **advance** time with :meth:`SimulatedServer.tick`, optionally declaring
  ESD charge/discharge flows and package deep sleep for that tick.

The engine never makes policy decisions. It faithfully reports what the
hardware would do given the current actuation state, including the costs the
paper calls out: PC6 wake latency and the private-cache penalty on resuming a
suspended application.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.engine import VectorPerformanceModel, VectorPowerModel, validate_engine
from repro.errors import ConfigurationError, SchedulingError
from repro.server.config import KnobSetting, ServerConfig, DEFAULT_SERVER_CONFIG
from repro.server.heartbeats import HeartbeatMonitor
from repro.server.knobs import KnobController
from repro.server.perf_model import PerformanceModel
from repro.server.power_model import PowerBreakdown, PowerModel
from repro.server.rapl import RaplInterface
from repro.server.sleep import SleepController
from repro.server.topology import ServerTopology
from repro.workloads.profiles import WorkloadProfile


@dataclass
class ApplicationHandle:
    """Lifecycle record of one admitted application.

    Attributes:
        name: Unique name on this server (an app may appear once).
        profile: Its workload profile (response surface + total work).
        admitted_at_s: Simulation time of admission.
        work_done: Work units completed so far.
        completed: ``True`` once ``work_done >= profile.total_work``.
        completed_at_s: Completion time, or ``None``.
        resume_debt_s: Outstanding private-cache refill time to charge
            against the next executing ticks (set on resume-after-suspend).
        resumes: Number of suspend->resume transitions (reporting).
        hung: ``True`` while the process is live-locked: it keeps drawing
            its allocated power but completes zero work (the nastiest
            fault class for a utility-aware allocator, which sees spend
            without progress). Set/cleared by the fault injector.
    """

    name: str
    profile: WorkloadProfile
    admitted_at_s: float
    work_done: float = 0.0
    completed: bool = False
    completed_at_s: float | None = None
    resume_debt_s: float = 0.0
    resumes: int = 0
    hung: bool = False

    @property
    def remaining_work(self) -> float:
        """Work units left until completion (never negative)."""
        return max(0.0, self.profile.total_work - self.work_done)

    @property
    def progress_fraction(self) -> float:
        """Completed fraction in ``[0, 1]`` (0 for infinite workloads)."""
        if self.profile.total_work == float("inf"):
            return 0.0
        return min(1.0, self.work_done / self.profile.total_work)


@dataclass(frozen=True)
class TickResult:
    """What happened during one engine tick.

    Attributes:
        time_s: Simulation time at the *end* of the tick.
        dt_s: Tick duration.
        breakdown: Itemized server power during the tick.
        progressed: Work units completed per running application.
        completed: Applications that finished during this tick, sorted.
    """

    time_s: float
    dt_s: float
    breakdown: PowerBreakdown
    progressed: dict[str, float] = field(default_factory=dict)
    completed: tuple[str, ...] = ()


class SimulatedServer:
    """One power-managed server. See the module docstring for the contract.

    Args:
        config: Hardware parameters; defaults to the paper's Table I.
        power_noise_std_w: Gaussian noise on RAPL power readings.
        perf_noise_relative_std: Relative noise on heartbeat rates.
        seed: Seed for both noise sources (reproducibility).
        engine: ``"scalar"`` for the reference Python models, ``"vector"``
            for the surface-cached fast path (:mod:`repro.engine`). The two
            are bit-identical - same trace hashes, same state dicts - so the
            choice is purely a speed knob; it is construction-time config
            (like the noise parameters) and not part of :meth:`state_dict`.
    """

    def __init__(
        self,
        config: ServerConfig = DEFAULT_SERVER_CONFIG,
        *,
        power_noise_std_w: float = 0.0,
        perf_noise_relative_std: float = 0.0,
        seed: int = 0,
        engine: str = "scalar",
    ) -> None:
        self._config = config
        self._engine = validate_engine(engine)
        self._topology = ServerTopology(config)
        if self._engine == "vector":
            self._perf: PerformanceModel = VectorPerformanceModel(config)
            self._power: PowerModel = VectorPowerModel(config, self._perf)
        else:
            self._perf = PerformanceModel(config)
            self._power = PowerModel(config, self._perf)
        self._rapl = RaplInterface(config.sockets, noise_std_w=power_noise_std_w, seed=seed)
        self._heartbeats = HeartbeatMonitor(
            noise_relative_std=perf_noise_relative_std, seed=seed + 1
        )
        self._sleep = SleepController(config)
        self._knobs = KnobController(config, self._topology, self._rapl)
        self._handles: dict[str, ApplicationHandle] = {}
        self._now_s = 0.0
        # Strategic-tenant hooks (repro.adversary): extra watts a tenant's
        # parasitic threads burn while it runs, and the factor by which it
        # over-reports heartbeat progress. Empty for honest populations.
        self._parasitic_w: dict[str, float] = {}
        self._hb_inflation: dict[str, float] = {}

    # ------------------------------------------------------------ accessors

    @property
    def config(self) -> ServerConfig:
        return self._config

    @property
    def engine(self) -> str:
        """Which model implementation backs this server (``scalar``/``vector``)."""
        return self._engine

    @property
    def topology(self) -> ServerTopology:
        return self._topology

    @property
    def perf_model(self) -> PerformanceModel:
        return self._perf

    @property
    def power_model(self) -> PowerModel:
        return self._power

    @property
    def rapl(self) -> RaplInterface:
        return self._rapl

    @property
    def heartbeats(self) -> HeartbeatMonitor:
        return self._heartbeats

    @property
    def sleep(self) -> SleepController:
        return self._sleep

    @property
    def knobs(self) -> KnobController:
        return self._knobs

    @property
    def now_s(self) -> float:
        """Current simulation time (seconds since construction)."""
        return self._now_s

    # ---------------------------------------------------------- persistence

    def state_dict(self) -> dict:
        """Snapshot the whole substrate for checkpointing.

        Composes the per-component snapshots (topology, RAPL, heartbeats,
        sleep, knobs) with the engine's own lifecycle records and clock. The
        models (:class:`PowerModel`, :class:`PerformanceModel`) are pure
        functions of the config and carry no state.
        """
        return {
            "now_s": self._now_s,
            "handles": {
                name: {
                    "profile": handle.profile.to_dict(),
                    "admitted_at_s": handle.admitted_at_s,
                    "work_done": handle.work_done,
                    "completed": handle.completed,
                    "completed_at_s": handle.completed_at_s,
                    "resume_debt_s": handle.resume_debt_s,
                    "resumes": handle.resumes,
                    "hung": handle.hung,
                }
                for name, handle in self._handles.items()
            },
            "topology": self._topology.state_dict(),
            "rapl": self._rapl.state_dict(),
            "heartbeats": self._heartbeats.state_dict(),
            "sleep": self._sleep.state_dict(),
            "knobs": self._knobs.state_dict(),
            "parasitic_w": dict(self._parasitic_w),
            "hb_inflation": dict(self._hb_inflation),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot exactly.

        Handles are rebuilt rather than re-admitted - admission has placement
        side effects (socket choice, initial knobs, heartbeat registration)
        that the component snapshots already capture verbatim. Callers that
        track phased profiles must re-link ``handle.profile`` to their own
        segment instances afterwards (see the mediator's restore).
        """
        self._now_s = float(state["now_s"])
        self._handles = {}
        for name, fields in state["handles"].items():
            completed_at = fields["completed_at_s"]
            self._handles[name] = ApplicationHandle(
                name=name,
                profile=WorkloadProfile.from_dict(fields["profile"]),
                admitted_at_s=float(fields["admitted_at_s"]),
                work_done=float(fields["work_done"]),
                completed=bool(fields["completed"]),
                completed_at_s=None if completed_at is None else float(completed_at),
                resume_debt_s=float(fields["resume_debt_s"]),
                resumes=int(fields["resumes"]),
                hung=bool(fields["hung"]),
            )
        self._topology.load_state_dict(state["topology"])
        self._rapl.load_state_dict(state["rapl"])
        self._heartbeats.load_state_dict(state["heartbeats"])
        self._sleep.load_state_dict(state["sleep"])
        self._knobs.load_state_dict(state["knobs"])
        # Pre-adversary checkpoints lack these keys: default to honest.
        self._parasitic_w = {
            k: float(v) for k, v in state.get("parasitic_w", {}).items()
        }
        self._hb_inflation = {
            k: float(v) for k, v in state.get("hb_inflation", {}).items()
        }

    # ------------------------------------------------------------ lifecycle

    def admit(
        self,
        profile: WorkloadProfile,
        *,
        start_suspended: bool = False,
        group_width: int | None = None,
    ) -> ApplicationHandle:
        """Admit an application: reserve cores, register heartbeats, attach
        knobs at the uncapped maximum, clamped to the group width. This is
        the substrate of arrival event E2.

        Args:
            profile: The application to admit; ``profile.name`` must be
                unique on this server.
            start_suspended: Admit in the suspended state - used when a
                coordinator wants to stage the app into a duty-cycle slot.
            group_width: Cores to reserve (defaults to the knob space's
                maximum). Narrower groups let more than one application per
                socket co-exist with full direct-resource isolation - e.g.
                four 3-core applications on the Table I platform.

        Raises:
            SchedulingError: duplicate name or no core group available.
        """
        if profile.name in self._handles:
            raise SchedulingError(
                f"application {profile.name!r} is already on this server"
            )
        group = self._topology.admit(profile.name, width=group_width)
        initial_knob = None
        if group.width < self._config.cores_max:
            initial_knob = KnobSetting(
                self._config.freq_max_ghz, group.width, self._config.dram_power_max_w
            )
        try:
            self._knobs.attach(profile.name, initial_knob)
            self._heartbeats.register(profile.name)
        except Exception:
            # Roll back the reservation so a failed admit leaves no residue.
            self._topology.release(profile.name)
            raise
        if start_suspended:
            self._knobs.suspend(profile.name)
        handle = ApplicationHandle(
            name=profile.name, profile=profile, admitted_at_s=self._now_s
        )
        self._handles[profile.name] = handle
        return handle

    def remove(self, app: str) -> ApplicationHandle:
        """Remove an application and release its resources (event E3).

        Returns the final handle (with completion statistics).
        """
        handle = self.handle_of(app)
        self._knobs.detach(app)
        self._heartbeats.unregister(app)
        self._topology.release(app)
        del self._handles[app]
        self._parasitic_w.pop(app, None)
        self._hb_inflation.pop(app, None)
        return handle

    def handle_of(self, app: str) -> ApplicationHandle:
        """Lifecycle record of an admitted application.

        Raises:
            SchedulingError: when the app is not on this server.
        """
        try:
            return self._handles[app]
        except KeyError:
            raise SchedulingError(f"application {app!r} is not on this server") from None

    def applications(self) -> list[str]:
        """Names of all admitted applications, sorted."""
        return sorted(self._handles)

    def active_applications(self) -> list[str]:
        """Admitted, not suspended, not completed - the apps that will
        execute on the next tick."""
        return [
            name
            for name in self._knobs.running_apps()
            if not self._handles[name].completed
        ]

    # -------------------------------------------------------- suspend/resume

    def suspend(self, app: str) -> None:
        """Suspend ``app`` (temporal coordination OFF period)."""
        self.handle_of(app)
        self._knobs.suspend(app)

    def resume(self, app: str) -> None:
        """Resume ``app``, charging the private-cache refill penalty.

        A resume of an app that was not suspended is a no-op (idempotent,
        like ``SIGCONT``) and charges nothing.
        """
        handle = self.handle_of(app)
        if self._knobs.is_suspended(app) and not handle.completed:
            handle.resume_debt_s += self._config.resume_penalty_s
            handle.resumes += 1
        self._knobs.resume(app)

    # ------------------------------------------------------ adversary hooks

    def set_parasitic_power_w(self, app: str, watts: float) -> None:
        """Declare extra watts ``app`` burns beyond its knob-implied draw.

        This is the substrate of contention-probe / power-spike / free-ride
        attacks: the tenant spins parasitic threads the mediator never
        allocated. The draw shows up in the tick's power breakdown (and so
        in RAPL and the wall meter) attributed to ``app``, but only while
        the app actually executes - a suspended process burns nothing.
        Setting 0 restores honesty. Idempotent.

        Raises:
            ConfigurationError: negative or non-finite watts.
            SchedulingError: app not admitted.
        """
        if not math.isfinite(watts) or watts < 0.0:
            raise ConfigurationError(
                f"parasitic power must be finite and non-negative, got {watts}"
            )
        self.handle_of(app)
        if watts == 0.0:
            self._parasitic_w.pop(app, None)
        else:
            self._parasitic_w[app] = watts

    def set_heartbeat_inflation(self, app: str, factor: float) -> None:
        """Scale the heartbeat progress ``app`` reports by ``factor``.

        A factor above 1 is the heartbeat-inflation attack: the app claims
        more progress than its power draw supports. True work accounting
        (``handle.work_done``, completion) is untouched - only the *report*
        lies. Setting 1.0 restores honesty. Idempotent.

        Raises:
            ConfigurationError: non-finite or negative factor.
            SchedulingError: app not admitted.
        """
        if not math.isfinite(factor) or factor < 0.0:
            raise ConfigurationError(
                f"heartbeat inflation factor must be finite and non-negative, got {factor}"
            )
        self.handle_of(app)
        if factor == 1.0:
            self._hb_inflation.pop(app, None)
        else:
            self._hb_inflation[app] = factor

    def parasitic_power_of(self, app: str) -> float:
        """Current parasitic draw declared for ``app`` (0 when honest)."""
        return self._parasitic_w.get(app, 0.0)

    def heartbeat_inflation_of(self, app: str) -> float:
        """Current heartbeat inflation factor for ``app`` (1 when honest)."""
        return self._hb_inflation.get(app, 1.0)

    # -------------------------------------------------------------- the tick

    def tick(
        self,
        dt_s: float,
        *,
        esd_charge_w: float = 0.0,
        esd_discharge_w: float = 0.0,
        deep_sleep: bool = False,
    ) -> TickResult:
        """Advance the server by ``dt_s`` seconds.

        Args:
            dt_s: Tick duration (positive).
            esd_charge_w / esd_discharge_w: ESD power flows the coordinator
                scheduled for this tick; they enter the wall-power equation.
            deep_sleep: Put (or keep) the package in PC6 for this tick.
                Requires no active applications.

        Returns:
            A :class:`TickResult` with the power breakdown and progress.

        Raises:
            SimulationError / ConfigurationError: on physically impossible
                requests (deep sleep with running apps, negative flows, ...).
        """
        if dt_s <= 0:
            raise ConfigurationError("tick duration must be positive")

        active = self.active_applications()
        if deep_sleep:
            self._sleep.enter_pc6(len(active))
        elif self._sleep.in_deep_sleep:
            self._sleep.wake()
        usable_fraction = self._sleep.consume_wake_penalty(dt_s)

        running = {
            name: (self._handles[name].profile, self._knobs.knob_of(name))
            for name in active
        }
        breakdown = self._power.server_breakdown(
            running,
            esd_charge_w=esd_charge_w,
            esd_discharge_w=esd_discharge_w,
            deep_sleep=deep_sleep and not active,
        )
        # Parasitic threads burn real power on top of the knob-implied draw.
        # They are attributed to their owner, so the wall meter, RAPL and
        # per-app attribution all see the true (inflated) consumption.
        parasites = {
            name: self._parasitic_w[name]
            for name in running
            if self._parasitic_w.get(name, 0.0) > 0.0
        }
        if parasites:
            app_w = dict(breakdown.app_w)
            for name, extra in parasites.items():
                app_w[name] = app_w.get(name, 0.0) + extra
            breakdown = PowerBreakdown(
                idle_w=breakdown.idle_w,
                cm_w=breakdown.cm_w,
                app_w=app_w,
                esd_charge_w=breakdown.esd_charge_w,
                esd_discharge_w=breakdown.esd_discharge_w,
            )

        end_time = self._now_s + dt_s
        progressed: dict[str, float] = {}
        completed: list[str] = []
        for name, (profile, knob) in running.items():
            handle = self._handles[name]
            useful_s = dt_s * usable_fraction
            if handle.resume_debt_s > 0.0:
                refill = min(handle.resume_debt_s, useful_s)
                handle.resume_debt_s -= refill
                useful_s -= refill
            # A hung process burns its whole allocation but completes nothing.
            work = 0.0 if handle.hung else self._perf.rate(profile, knob) * useful_s
            work = min(work, handle.remaining_work)
            handle.work_done += work
            progressed[name] = work
            if handle.remaining_work <= 0.0 and not handle.completed:
                handle.completed = True
                handle.completed_at_s = end_time
                completed.append(name)
                # A finished process exits: stop scheduling it.
                self._knobs.suspend(name)

        # Heartbeats: every registered app emits (zero when not progressing),
        # so windowed rates decay naturally during OFF periods. An inflating
        # tenant scales its *report* here; true work accounting above is
        # untouched.
        for name in self._handles:
            beats = progressed.get(name, 0.0)
            factor = self._hb_inflation.get(name)
            if factor is not None:
                beats *= factor
            self._heartbeats.emit(name, end_time, beats)

        self._rapl.advance(self._domain_powers(running, breakdown), dt_s)
        self._now_s = end_time
        return TickResult(
            time_s=end_time,
            dt_s=dt_s,
            breakdown=breakdown,
            progressed=progressed,
            completed=tuple(sorted(completed)),
        )

    # ------------------------------------------------------------ utilities

    def _domain_powers(
        self,
        running: dict[str, tuple[WorkloadProfile, KnobSetting]],
        breakdown: PowerBreakdown,
    ) -> dict[str, float]:
        """Attribute component powers to RAPL domains for counter updates."""
        powers: dict[str, float] = {"psys": breakdown.wall_w}
        per_socket_cm = breakdown.cm_w / self._config.sockets
        for s in range(self._config.sockets):
            pkg = per_socket_cm
            dram = 0.0
            for name in self._topology.apps_on_socket(s):
                if name not in running:
                    continue
                profile, knob = running[name]
                pkg += self._config.p_app_floor_w + self._power.core_power_w(profile, knob)
                # Parasitic threads live on the owner's cores: package domain.
                pkg += self._parasitic_w.get(name, 0.0)
                dram += self._power.dram_power_w(profile, knob)
            powers[f"package-{s}"] = pkg
            powers[f"dram-{s}"] = dram
        return powers
