"""PowerMediator: the top-level framework object (the paper's Fig. 6).

One mediator manages one server under one policy:

* it owns the **utility pipeline** - an exhaustively profiled corpus of
  previously seen applications, a trained collaborative estimator, and the
  online sampler that calibrates each arriving application;
* it reacts to the **events** the Accountant raises (E1 cap change, E2
  arrival, E3 departure, E4 phase change) by re-calibrating and/or
  re-allocating;
* every allocation epoch it builds a :class:`~repro.core.policies.PolicyContext`,
  asks the policy for an :class:`~repro.core.coordinator.AllocationPlan`,
  and hands the plan to the Coordinator, which executes it tick by tick;
* it records a per-tick **timeline** (powers, knobs, battery state) from
  which every figure of the paper is rebuilt.

An arrival or a phase change re-plans at once: the new plan runs from the
next tick. The paper's measured ~800 ms calibration and re-allocation
settling window (Fig. 11a) is not modelled; no tick waits for it.

Resilience (see :mod:`repro.core.resilience`): when constructed with a
:class:`~repro.faults.plan.FaultPlan`, the mediator drives a
:class:`~repro.faults.injector.FaultInjector` each tick and survives what it
breaks. Wall power is *sensed* through the psys energy counter
(wraparound-safe counter differencing, optionally filtered by telemetry
faults) rather than read from the engine's breakdown; a
:class:`~repro.core.resilience.TelemetryWatchdog` downgrades planning to a
widened guard band when the sensor goes stale; an
:class:`~repro.core.resilience.ActuationRetrier` re-drives unverified knob
writes with exponential backoff; a detected cap breach triggers the
coordinator's emergency floor-throttle within the same tick and only a
breach persisting into the next tick raises
:class:`~repro.errors.SimulationError`. Breach detection itself uses the
engine's true wall power - the stand-in for the trusted out-of-band power
monitor (CPLD/BMC) real servers carry precisely because in-band telemetry
can lie.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, SchedulingError, SimulationError
from repro.adversary.engine import AdversaryEngine
from repro.adversary.plan import AdversarySchedule, AdversarySpec
from repro.core.accountant import Accountant
from repro.core.coordinator import AllocationPlan, CoordinationMode, Coordinator, TimeSlot
from repro.core.events import DepartureEvent, Event, PhaseChangeEvent
from repro.core.policies import AppResAwarePolicy, Policy, PolicyContext
from repro.core.resilience import (
    CONSERVATIVE_INFLATION,
    DEGRADED_GUARD_BAND,
    ActuationRetrier,
    FaultStats,
    TelemetryWatchdog,
)
from repro.core.trust import (
    GUARD_BAND,
    AppObservation,
    DefenseConfig,
    TrustScorer,
    TrustState,
)
from repro.core.utility import CandidateSet
from repro.esd.battery import LeadAcidBattery
from repro.esd.controller import DutyCycle, EsdController, compute_duty_cycle
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.learning.collaborative import CollaborativeEstimator
from repro.learning.crossval import build_exhaustive_corpus
from repro.learning.matrix import PreferenceMatrix
from repro.learning.sampling import (
    SAMPLE_PERF_NOISE_REL,
    SAMPLE_POWER_NOISE_W,
    Sampler,
    StratifiedSampler,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.profiling import PhaseProfiler
from repro.observability.trace import NULL_TRACE_BUS, TraceBus
from repro.server.config import KnobSetting
from repro.server.rapl import energy_delta_j
from repro.server.server import ApplicationHandle, SimulatedServer
from repro.workloads.catalog import CATALOG
from repro.workloads.generator import PhasedProfile
from repro.workloads.profiles import WorkloadProfile


@dataclass(frozen=True)
class TickRecord:
    """One timeline sample (the raw material of Figs. 8, 10, 11, 12).

    Attributes:
        time_s: End-of-tick simulation time.
        p_cap_w: Cap in force.
        wall_w: Server wall power.
        mode: Coordination mode in force.
        app_power_w: Per-app instantaneous ``P_X``.
        app_knobs: Per-app knob settings (running apps only).
        progressed: Work completed this tick per app.
        battery_soc: Battery state of charge (``None`` without an ESD).
        observed_wall_w: What the wall-power *sensor* reported this tick
            (``None`` for a dropped sample); equals ``wall_w`` on a healthy
            run.
        degraded: Whether the telemetry watchdog had the mediator in
            degraded mode during this tick.
        breach: Whether true wall power exceeded the cap this tick (the
            emergency throttle fired in response).
    """

    time_s: float
    p_cap_w: float
    wall_w: float
    mode: CoordinationMode
    app_power_w: dict[str, float]
    app_knobs: dict[str, KnobSetting]
    progressed: dict[str, float]
    battery_soc: float | None
    observed_wall_w: float | None = None
    degraded: bool = False
    breach: bool = False


def _tick_record_to_dict(record: TickRecord) -> dict:
    """JSON form of one timeline sample (checkpoint codec)."""
    return {
        "time_s": float(record.time_s),
        "p_cap_w": float(record.p_cap_w),
        "wall_w": float(record.wall_w),
        "mode": record.mode.value,
        "app_power_w": {name: float(w) for name, w in record.app_power_w.items()},
        "app_knobs": {name: knob.to_json() for name, knob in record.app_knobs.items()},
        "progressed": {name: float(w) for name, w in record.progressed.items()},
        "battery_soc": None if record.battery_soc is None else float(record.battery_soc),
        "observed_wall_w": (
            None if record.observed_wall_w is None else float(record.observed_wall_w)
        ),
        "degraded": record.degraded,
        "breach": record.breach,
    }


def _tick_record_from_dict(data: dict) -> TickRecord:
    """Inverse of :func:`_tick_record_to_dict`."""
    soc = data["battery_soc"]
    observed = data["observed_wall_w"]
    return TickRecord(
        time_s=float(data["time_s"]),
        p_cap_w=float(data["p_cap_w"]),
        wall_w=float(data["wall_w"]),
        mode=CoordinationMode(data["mode"]),
        app_power_w={name: float(w) for name, w in data["app_power_w"].items()},
        app_knobs={
            name: KnobSetting.from_json(raw) for name, raw in data["app_knobs"].items()
        },
        progressed={name: float(w) for name, w in data["progressed"].items()},
        battery_soc=None if soc is None else float(soc),
        observed_wall_w=None if observed is None else float(observed),
        degraded=bool(data["degraded"]),
        breach=bool(data["breach"]),
    )


def _tick_events(
    record: TickRecord, charge_w: float, discharge_w: float
) -> list[tuple[str, dict]]:
    """The trace events of one steady tick: ``tick``, then ``battery``
    while the battery flows. The scalar loop and the fast segments emit
    exactly these, so both build them here."""
    events = [
        (
            "tick",
            {
                "time_s": record.time_s,
                "cap_w": record.p_cap_w,
                "wall_w": record.wall_w,
                "mode": record.mode.value,
                "soc": record.battery_soc,
                "degraded": record.degraded,
                "breach": record.breach,
                "app_w": record.app_power_w,
            },
        )
    ]
    if charge_w > 0 or discharge_w > 0:
        events.append(
            (
                "battery",
                {"charge_w": charge_w, "discharge_w": discharge_w, "soc": record.battery_soc},
            )
        )
    return events


class FastPathCounts:
    """How a vector-engine :meth:`PowerMediator.run_for` advanced its
    mediator: ticks replayed in fast segments, ticks stepped scalar, and
    each scalar tick's demotion reason (:mod:`repro.engine.planner`).

    Execution facts, like the phase timers: they go in the metrics JSON's
    ``profile`` section, never in the registry or on the trace bus. The
    record holds numbers only, never its mediator, so a finished run is
    freed by reference counting alone.
    """

    __slots__ = ("fast_ticks", "scalar_ticks", "segments", "demotions")

    def __init__(self) -> None:
        self.fast_ticks = 0
        self.scalar_ticks = 0
        self.segments = 0
        self.demotions: dict[str, int] = {}


def _suffix(items: list, start: int, name: str) -> list:
    """``items[start:]``, refusing a cursor past either end."""
    if not 0 <= start <= len(items):
        raise ValueError(f"{name} must be in [0, {len(items)}], got {start}")
    return items[start:]


def _handle_to_dict(handle: ApplicationHandle) -> dict:
    """JSON form of a departed application's final handle."""
    return {
        "profile": handle.profile.to_dict(),
        "admitted_at_s": handle.admitted_at_s,
        "work_done": handle.work_done,
        "completed": handle.completed,
        "completed_at_s": handle.completed_at_s,
        "resume_debt_s": handle.resume_debt_s,
        "resumes": handle.resumes,
        "hung": handle.hung,
    }


def _handle_from_dict(name: str, data: dict) -> ApplicationHandle:
    """Inverse of :func:`_handle_to_dict`."""
    completed_at = data["completed_at_s"]
    return ApplicationHandle(
        name=name,
        profile=WorkloadProfile.from_dict(data["profile"]),
        admitted_at_s=float(data["admitted_at_s"]),
        work_done=float(data["work_done"]),
        completed=bool(data["completed"]),
        completed_at_s=None if completed_at is None else float(completed_at),
        resume_debt_s=float(data["resume_debt_s"]),
        resumes=int(data["resumes"]),
        hung=bool(data["hung"]),
    )


@dataclass
class ManagedApp:
    """Mediator-side record of one application under management.

    Attributes:
        profile: Current profile (phased workloads swap it at boundaries).
        phased: The phase script, when the workload is dynamic.
        arrived_at_s: Admission time.
        peak_rate: Uncapped rate of the *current* profile (the normalization
            denominator for this app's throughput).
        calibrated: The profile the app's candidate sets were built from.
            It trails ``profile`` from a phase swap until the E4
            re-calibration the swap triggers.
    """

    profile: WorkloadProfile
    phased: PhasedProfile | None
    arrived_at_s: float
    peak_rate: float
    calibrated: WorkloadProfile | None = None


class PowerMediator:
    """Power-struggle mediation for one server under one policy.

    Args:
        server: The server to manage.
        policy: One of the paper's five schemes.
        p_cap_w: Initial power cap (E1 messages can change it later).
        battery: The server's ESD; required by ESD-aware policies.
        corpus: Previously-seen-application matrices; defaults to an
            exhaustive profiling of the full catalog *excluding* nothing -
            experiments studying cold-start can pass their own.
        sampler: Online sampling strategy for calibration (default:
            stratified at the paper's 10%).
        use_oracle_estimates: Bypass the learning pipeline and hand policies
            the true response surfaces; used to separate policy quality from
            estimation error in ablations.
        dt_s: Tick length for :meth:`run_for`.
        seed: Seed for the calibration samples' measurement noise
            (:data:`~repro.learning.sampling.SAMPLE_POWER_NOISE_W` and
            :data:`~repro.learning.sampling.SAMPLE_PERF_NOISE_REL`).
        faults: Optional fault plan; when given, a
            :class:`~repro.faults.injector.FaultInjector` degrades the
            substrate on schedule and the resilience layer earns its keep.
        adversaries: Optional strategic-tenant schedule; an
            :class:`~repro.adversary.engine.AdversaryEngine` executes it
            against the server each tick. Attacks act purely through the
            substrate (parasitic draw, inflated heartbeats) - the mediator's
            only countermeasure is the TrustScorer.
        defense: TrustScorer tunables; defenses are *on by default* and
            cost nothing on honest runs (the scorer is pure bookkeeping and
            draws no RNG). Pass ``DefenseConfig(enabled=False)`` to study
            undefended behaviour.
    """

    def __init__(
        self,
        server: SimulatedServer,
        policy: Policy,
        p_cap_w: float,
        *,
        battery: LeadAcidBattery | None = None,
        corpus: PreferenceMatrix | None = None,
        sampler: Sampler | None = None,
        use_oracle_estimates: bool = False,
        dt_s: float = 0.1,
        seed: int = 0,
        faults: FaultPlan | None = None,
        trace_bus: TraceBus | None = None,
        adversaries: AdversarySchedule | None = None,
        defense: DefenseConfig | None = None,
        oracle_cache: dict | None = None,
    ) -> None:
        if dt_s <= 0:
            raise ConfigurationError("dt_s must be positive")
        if policy.uses_esd and battery is None:
            raise ConfigurationError(f"policy {policy.name!r} requires a battery")
        self._server = server
        self._policy = policy
        self._battery = battery
        self._dt_s = dt_s
        self._rng = np.random.default_rng(seed)
        self._sampler = sampler if sampler is not None else StratifiedSampler(0.10, seed=seed)
        self._use_oracle = use_oracle_estimates

        self._metrics = MetricsRegistry()
        self._profiler = PhaseProfiler()
        self._fast_path = FastPathCounts()
        self._trace = NULL_TRACE_BUS
        self._timeline: list[TickRecord] = []

        self._coordinator = Coordinator(server)
        self._accountant = Accountant(server)
        if trace_bus is not None:
            self.attach_trace_bus(trace_bus)
        self._accountant.notify_cap_change(p_cap_w)

        self._corpus = (
            corpus
            if corpus is not None
            else build_exhaustive_corpus(server.config, list(CATALOG.values()))
        )
        #: Optional fleet-wide cache of oracle CandidateSets, keyed by
        #: (profile, config, width-restriction). CandidateSet construction is
        #: pure and deterministic, so identical servers running the same
        #: workload share one set instead of rebuilding it per mediator at
        #: every allocation epoch. Pass one dict to every mediator in a fleet.
        self._oracle_cache = oracle_cache
        self._estimator: CollaborativeEstimator | None = None
        self._population: CandidateSet | None = None
        self._estimates: dict[str, CandidateSet] = {}
        self._oracle: dict[str, CandidateSet] = {}
        self._managed: dict[str, ManagedApp] = {}
        self._finished: dict[str, ApplicationHandle] = {}
        self._finished_peaks: dict[str, float] = {}
        self._departures: list[str] = []  # departed apps, in order

        self._injector = (
            FaultInjector(faults, server, battery=battery) if faults is not None else None
        )
        self._watchdog = TelemetryWatchdog()
        self._retrier = ActuationRetrier(server.knobs)
        self._fault_stats = FaultStats(self._metrics)
        self._fallback_policy: Policy | None = None
        self._actuation_faulted: set[str] = set()
        self._breach_last_tick = False
        self._last_psys_energy_j = server.rapl.read_energy_j("psys")
        self._safe_hold_ticks = 0

        self._adversary = AdversaryEngine(server, adversaries)
        self._trust = TrustScorer(defense)

    # ------------------------------------------------------------ accessors

    @property
    def server(self) -> SimulatedServer:
        return self._server

    @property
    def policy(self) -> Policy:
        return self._policy

    @property
    def sampler(self) -> Sampler:
        """The online sampling strategy calibration measures with."""
        return self._sampler

    @property
    def p_cap_w(self) -> float:
        cap = self._accountant.p_cap_w
        assert cap is not None  # set in __init__
        return cap

    @property
    def coordinator(self) -> Coordinator:
        return self._coordinator

    @property
    def accountant(self) -> Accountant:
        return self._accountant

    @property
    def timeline(self) -> list[TickRecord]:
        """The recorded per-tick history (live list; treat as read-only)."""
        return self._timeline

    @property
    def battery(self) -> LeadAcidBattery | None:
        return self._battery

    @property
    def fault_stats(self) -> FaultStats:
        """Resilience counters for this run (live object)."""
        return self._fault_stats

    @property
    def trace_bus(self) -> TraceBus:
        """The attached trace sink (the shared no-op bus by default)."""
        return self._trace

    @property
    def metrics(self) -> MetricsRegistry:
        """The run's metrics registry (resilience counters included)."""
        return self._metrics

    @property
    def profiler(self) -> PhaseProfiler:
        """Wall-clock timers around the control loop's phases."""
        return self._profiler

    @property
    def fast_path(self) -> FastPathCounts:
        """Fast-segment and scalar tick counts of vector-engine ``run_for``."""
        return self._fast_path

    def attach_trace_bus(self, bus: TraceBus) -> None:
        """Route this mediator's (and its components') events to ``bus``.

        May be called mid-run - the supervisor re-attaches after a warm
        restart. The bus cursor is synced to this mediator's position: the
        cursor an uninterrupted run would have between ticks is the *start*
        time of the last executed tick, which keeps events emitted before
        the next tick (cap changes, admissions, replayed commands) stamped
        identically to an uninterrupted run's.
        """
        self._trace = bus
        self._coordinator.trace_bus = bus
        self._accountant.trace_bus = bus
        if self._timeline:
            last = self._timeline[-1]
            bus.begin_tick(len(self._timeline) - 1, last.time_s - self._dt_s)
        else:
            bus.begin_tick(0, self._server.now_s)

    def export_metrics(self) -> dict:
        """The run's metrics JSON: registry plus the per-phase profile.

        Counters/gauges/histograms are deterministic per seed; the
        ``profile`` section is wall-clock and is not. Once a vector-engine
        :meth:`run_for` has run, ``profile["fast_path"]`` holds its
        :class:`FastPathCounts`; they differ between the engines, so they
        stay out of the registry.
        """
        self._metrics.gauge("mediator.ticks").set(float(len(self._timeline)))
        self._metrics.gauge("mediator.managed_apps").set(float(len(self._managed)))
        if self._battery is not None:
            self._metrics.gauge("esd.soc").set(self._battery.soc)
        # Vector models count scalar-superclass fallbacks (off-grid queries
        # that silently bypass the fast path). Sync them into the registry so
        # they show up in metrics instead of only as mystery slowdowns. The
        # counter is created on first fallback only: honest on-grid runs keep
        # a registry identical to the scalar engine's.
        fallbacks = getattr(self._server.perf_model, "fallbacks", 0) + getattr(
            self._server.power_model, "fallbacks", 0
        )
        if fallbacks:
            counter = self._metrics.counter("engine.fallback")
            if fallbacks > counter.value:
                counter.inc(fallbacks - counter.value)
        doc = self._metrics.to_json()
        doc["profile"] = self._profiler.report()
        counts = self._fast_path
        if counts.fast_ticks or counts.scalar_ticks:
            doc["profile"]["fast_path"] = {
                "fast_ticks": counts.fast_ticks,
                "scalar_ticks": counts.scalar_ticks,
                "segments": counts.segments,
                "demotions": dict(sorted(counts.demotions.items())),
            }
        return doc

    @property
    def degraded_telemetry(self) -> bool:
        """Whether the telemetry watchdog currently distrusts the sensor."""
        return self._watchdog.degraded

    @property
    def adversary_engine(self) -> AdversaryEngine:
        """The strategic-tenant runtime (empty on honest runs)."""
        return self._adversary

    @property
    def trust(self) -> TrustScorer:
        """The defense's trust scorer (live object)."""
        return self._trust

    def register_adversary(self, spec: AdversarySpec) -> None:
        """Attach a strategic-behaviour spec to a (present or future) tenant.

        Service mode calls this at admission time for adversarial clients;
        experiments may also call it before :meth:`add_application`.

        Raises:
            AdversaryError: when the app already has a *different* spec
                (re-registering an identical one is a no-op, so journal
                replay is idempotent).
        """
        self._adversary.register(spec)

    @property
    def dt_s(self) -> float:
        """Tick length (the supervisor's journal granularity)."""
        return self._dt_s

    @property
    def tick_count(self) -> int:
        """Ticks executed so far (== recorded timeline length)."""
        return len(self._timeline)

    @property
    def safe_hold_remaining(self) -> int:
        """Ticks left in the post-restart guard-banded safe posture."""
        return self._safe_hold_ticks

    def managed_apps(self) -> list[str]:
        """Applications currently under management, sorted."""
        return sorted(self._managed)

    def finished_handle(self, app: str) -> ApplicationHandle:
        """Final handle of a departed application.

        Raises:
            SchedulingError: if the app never finished here.
        """
        try:
            return self._finished[app]
        except KeyError:
            raise SchedulingError(f"{app!r} has not finished on this server") from None

    def peak_rate_of(self, app: str) -> float:
        """The uncapped rate used to normalize the app's throughput.

        For departed applications the rate recorded at departure is used,
        so narrow-group apps stay normalized to the peak of the core group
        they actually had.
        """
        if app in self._managed:
            return self._managed[app].peak_rate
        if app in self._finished:
            return self._finished_peaks[app]
        raise SchedulingError(f"{app!r} is not known to this mediator")

    # ---------------------------------------------------------- persistence

    def state_dict(
        self, *, timeline_from: int = 0, events_from: int = 0, finished_from: int = 0
    ) -> dict:
        """Snapshot every piece of mutable mediation state.

        Together with the constructor recipe (server config, policy name,
        seeds, fault plan - see
        :mod:`repro.persistence.checkpoint`), this is sufficient to rebuild
        a mediator that continues the run **bit-identically**: all RNG
        streams, the event ledger, the coordinator's execution cursor, the
        battery's charge/fade accounting, and the resilience counters travel
        in full. Derived artifacts (corpus, trained estimator, population
        view, fallback policy) are deliberately absent - they are
        deterministic functions of the recipe and rebuild lazily. So are the
        oracle candidate sets: each is stored as what it was built from
        (``segment``, the index of the phased segment it was calibrated on
        or ``None`` for the app's own profile, and the core-group
        ``width``), and ``estimates`` holds only learned sets, not those
        that are the oracle set itself.

        Args:
            timeline_from / events_from / finished_from: Leave that many
                timeline records, accountant events and departures
                (``finished`` lists them in order, with final handles and
                peak rates) out of the snapshot, for a caller that already
                holds them (the checkpoint store's history log). The
                snapshot restores only once they are put back in front.
        """
        esd = self._coordinator.esd_controller
        return {
            "rng": self._rng.bit_generator.state,
            "server": self._server.state_dict(),
            "battery": None if self._battery is None else self._battery.state_dict(),
            "managed": {
                name: {
                    "profile": m.profile.to_dict(),
                    "phased": None
                    if m.phased is None
                    else [[t, p.to_dict()] for t, p in m.phased.segments],
                    "segment": self._segment_index(m),
                    "arrived_at_s": m.arrived_at_s,
                    "peak_rate": float(m.peak_rate),
                }
                for name, m in self._managed.items()
            },
            "finished": [
                {
                    "app": name,
                    "handle": _handle_to_dict(self._finished[name]),
                    "peak_rate": float(self._finished_peaks[name]),
                }
                for name in _suffix(self._departures, finished_from, "finished_from")
            ],
            "estimates": {
                name: cs.to_dict()
                for name, cs in self._estimates.items()
                if cs is not self._oracle[name]
            },
            "oracle": {
                name: {
                    "segment": self._calibrated_segment(self._managed[name]),
                    "width": self._server.topology.group_of(name).width,
                }
                for name in self._oracle
            },
            "timeline": [
                _tick_record_to_dict(r)
                for r in _suffix(self._timeline, timeline_from, "timeline_from")
            ],
            "coordinator": self._coordinator.state_dict(),
            "esd_controller": None if esd is None else esd.state_dict(),
            "accountant": self._accountant.state_dict(log_from=events_from),
            "watchdog": self._watchdog.state_dict(),
            "retrier": self._retrier.state_dict(),
            "fault_stats": self._fault_stats.state_dict(),
            "injector": None if self._injector is None else self._injector.state_dict(),
            "actuation_faulted": sorted(self._actuation_faulted),
            "breach_last_tick": self._breach_last_tick,
            "last_psys_energy_j": self._last_psys_energy_j,
            "safe_hold_ticks": self._safe_hold_ticks,
            "adversary": self._adversary.state_dict(),
            "trust": self._trust.state_dict(),
        }

    @staticmethod
    def _calibrated_segment(managed: ManagedApp) -> int | None:
        """Index of the phased segment equal to the profile the app's
        candidate sets were built from; ``None`` when the app is not phased
        (its sets come from its one profile)."""
        if managed.phased is None:
            return None
        for i, (_, profile) in enumerate(managed.phased.segments):
            if profile == managed.calibrated:
                return i
        raise AssertionError(f"{managed.profile.name!r} calibrated on no segment")

    @staticmethod
    def _segment_index(managed: ManagedApp) -> int | None:
        """Identity index of the current profile among the phased segments.

        ``None`` when the app is not phased *or* when the current profile is
        the caller's own instance (equal to segment 0 but not yet swapped by
        :meth:`_check_phase_boundaries`) - the restore keeps the freshly
        parsed profile distinct in that case, replicating the original
        identity relations exactly.
        """
        if managed.phased is None:
            return None
        for i, (_, profile) in enumerate(managed.phased.segments):
            if profile is managed.profile:
                return i
        return None

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot exactly.

        The mediator must have been built from the same recipe (same config,
        policy, seeds, fault plan) and not yet run. Component snapshots are
        installed without re-running admission, adoption, or calibration -
        those paths have side effects (placement, actuation, RNG draws) the
        snapshots already reflect. Afterwards the next :meth:`step` produces
        the same tick the checkpointed run would have produced.
        """
        self._rng.bit_generator.state = state["rng"]
        self._server.load_state_dict(state["server"])
        if self._battery is not None and state["battery"] is not None:
            self._battery.load_state_dict(state["battery"])
        self._managed = {}
        for name, fields in state["managed"].items():
            profile = WorkloadProfile.from_dict(fields["profile"])
            phased = None
            if fields["phased"] is not None:
                phased = PhasedProfile(
                    [
                        (float(t), WorkloadProfile.from_dict(p))
                        for t, p in fields["phased"]
                    ]
                )
                if fields["segment"] is not None:
                    profile = phased.segments[int(fields["segment"])][1]
            # Re-link the engine handle to the mediator's instance: phase
            # boundary detection compares profiles by identity.
            self._server.handle_of(name).profile = profile
            self._managed[name] = ManagedApp(
                profile=profile,
                phased=phased,
                arrived_at_s=float(fields["arrived_at_s"]),
                peak_rate=float(fields["peak_rate"]),
            )
        self._finished, self._finished_peaks, self._departures = {}, {}, []
        for entry in state["finished"]:
            name = entry["app"]
            self._finished[name] = _handle_from_dict(name, entry["handle"])
            self._finished_peaks[name] = float(entry["peak_rate"])
            self._departures.append(name)
        self._oracle = {}
        for name, source in state["oracle"].items():
            managed = self._managed[name]
            segment = source["segment"]
            managed.calibrated = (
                managed.profile
                if segment is None
                else managed.phased.segments[int(segment)][1]
            )
            self._oracle[name] = self._oracle_set(managed.calibrated, int(source["width"]))
        learned = state["estimates"]
        self._estimates = {
            name: CandidateSet.from_dict(learned[name]) if name in learned else oracle
            for name, oracle in self._oracle.items()
        }
        self._timeline = [_tick_record_from_dict(r) for r in state["timeline"]]
        esd = None
        if state["esd_controller"] is not None:
            assert self._battery is not None
            cycle = state["esd_controller"]["cycle"]
            esd = EsdController(
                self._battery,
                DutyCycle(
                    off_s=float(cycle["off_s"]),
                    on_s=float(cycle["on_s"]),
                    charge_w=float(cycle["charge_w"]),
                    discharge_w=float(cycle["discharge_w"]),
                ),
            )
            esd.load_state_dict(state["esd_controller"])
        self._coordinator.load_state_dict(state["coordinator"], esd_controller=esd)
        self._accountant.load_state_dict(
            state["accountant"], plan=self._coordinator.plan
        )
        self._watchdog.load_state_dict(state["watchdog"])
        self._retrier.load_state_dict(state["retrier"])
        self._fault_stats.load_state_dict(state["fault_stats"])
        if self._injector is not None and state["injector"] is not None:
            self._injector.load_state_dict(state["injector"])
        self._actuation_faulted = set(state["actuation_faulted"])
        self._breach_last_tick = bool(state["breach_last_tick"])
        self._last_psys_energy_j = float(state["last_psys_energy_j"])
        self._safe_hold_ticks = int(state["safe_hold_ticks"])
        # Pre-adversary checkpoints lack these keys: default to honest.
        if "adversary" in state:
            self._adversary.load_state_dict(state["adversary"])
        if "trust" in state:
            self._trust.load_state_dict(state["trust"])

    # ------------------------------------------------------------- messages

    def set_power_cap(self, new_cap_w: float) -> None:
        """E1: adopt a new cap and re-allocate immediately."""
        self._accountant.notify_cap_change(new_cap_w)
        if self._managed:
            self.reallocate()

    def add_application(
        self,
        profile: WorkloadProfile,
        *,
        phased: PhasedProfile | None = None,
        group_width: int | None = None,
    ) -> None:
        """E2: admit, calibrate, and re-allocate.

        The re-allocation is immediate: the new plan runs from the next
        tick. The paper's measured ~800 ms settling window is not modelled.

        Args:
            profile: The application (or the initial segment when phased).
            phased: Optional phase script driving E4 events later.
            group_width: Cores to reserve (default: the knob maximum).
                Narrower groups admit more than two applications with full
                direct-resource isolation; the app's knob space, candidate
                sets and allocations are restricted accordingly.
        """
        if phased is not None and phased.initial != profile:
            raise ConfigurationError("profile must be the phased workload's initial segment")
        self._accountant.notify_arrival(profile)
        self._server.admit(profile, start_suspended=True, group_width=group_width)
        self._managed[profile.name] = ManagedApp(
            profile=profile,
            phased=phased,
            arrived_at_s=self._server.now_s,
            peak_rate=self._width_peak_rate(profile, profile.name),
        )
        self._refresh_views(profile.name)
        self.reallocate()

    def remove_application(self, app: str, *, completed: bool = False) -> ApplicationHandle:
        """E3 (forced variant): remove an app and re-allocate the headroom."""
        handle = self._retire(app)
        self._retrier.forget(app)
        self._actuation_faulted.discard(app)
        if not completed:
            # Natural completions were already logged by the Accountant.
            self._accountant._log.append(  # noqa: SLF001 - mediator is the owner
                DepartureEvent(time_s=self._server.now_s, app=app, completed=False)
            )
            self._trace.emit(
                "departure",
                {"at_s": self._server.now_s, "app": app, "completed": False},
            )
        if self._managed:
            self.reallocate()
        return handle

    # ----------------------------------------------------------- allocation

    def ensure_plan(self) -> None:
        """Adopt an IDLE plan if none exists, so an empty server can tick.

        Closed-loop runs admit an application (which plans) before the
        first tick; an open-loop service must be able to tick an empty
        server while it waits for arrivals. Idempotent - a no-op once any
        plan (idle or real) has been adopted or restored.
        """
        if self._coordinator.plan is None:
            self._coordinator.adopt(
                AllocationPlan(mode=CoordinationMode.IDLE, p_cap_w=self.p_cap_w)
            )

    def reallocate(self) -> AllocationPlan:
        """Build a context, plan, and hand the plan to the Coordinator.

        Degraded modes bend this path in two ways. While the telemetry
        watchdog distrusts the wall sensor, planning targets the *effective*
        cap (true cap minus the degraded guard band) so estimation slack
        cannot push the unobservable wall over the real limit. While the
        battery is untrusted (outage window, or detached), an ESD-aware
        policy is replaced by the App+Res-Aware fallback - consolidated
        duty cycling (R4) needs a battery it can bank on, so the plan
        degrades to spatial/temporal coordination (R3a/R3b) until the ESD
        recovers.

        The defense layer bends it a third way: quarantined applications
        are omitted from the context entirely (the coordinator suspends
        them by omission), SUSPECT/PROBATION apps plan at reduced utility
        weight, and the effective cap carries the defense guard band while
        anyone is off full trust.
        """
        if not self._managed:
            raise SchedulingError("no applications to allocate power to")
        quarantined = set(self._trust.quarantined_apps())
        planned = [n for n in sorted(self._managed) if n not in quarantined]
        policy = self._policy
        battery = self._battery
        if policy.uses_esd and not self._battery_trusted():
            policy = self._get_fallback_policy()
            battery = None
        with self._profiler.phase("allocate"):
            if not planned:
                # Every tenant is quarantined: hold the server idle rather
                # than hand the budget to known liars.
                plan = AllocationPlan(
                    mode=CoordinationMode.IDLE, p_cap_w=self._effective_cap_w()
                )
            else:
                ctx = PolicyContext(
                    config=self._server.config,
                    p_cap_w=self._effective_cap_w(),
                    oracle={n: self._oracle[n] for n in planned},
                    estimates={n: self._estimates[n] for n in planned},
                    population=(
                        self._get_population() if policy.needs_population else None
                    ),
                    battery=battery,
                    trust_weights=self._trust.weights() or None,
                )
                plan = self._guard_plan(policy.plan(ctx))
        esd_controller = None
        if plan.mode is CoordinationMode.ESD:
            assert self._battery is not None and plan.duty_cycle is not None
            esd_controller = EsdController(self._battery, plan.duty_cycle)
        previous = self._coordinator.plan
        with self._profiler.phase("actuate"):
            self._coordinator.adopt(plan, esd_controller=esd_controller)
        self._accountant.adopt_plan(plan)
        self._metrics.counter("mediator.reallocations").inc()
        self._metrics.counter(f"coordination.adoptions.{plan.mode.value}").inc()
        self._emit_allocation(plan, previous)
        return plan

    def _emit_allocation(self, plan: AllocationPlan, previous: AllocationPlan | None) -> None:
        """Trace the adopted plan (and the mode transition, when one occurred)."""
        if not self._trace.active:
            return
        prev_mode = None if previous is None else previous.mode.value
        if prev_mode != plan.mode.value:
            self._trace.emit(
                "mode-switch", {"from_mode": prev_mode, "to_mode": plan.mode.value}
            )
        payload: dict = {
            "mode": plan.mode.value,
            "cap_w": plan.p_cap_w,
            "knobs": {name: knob.to_json() for name, knob in plan.knobs.items()},
            "slots": len(plan.slots),
        }
        if plan.allocation is not None:
            payload["budget_w"] = plan.allocation.budget_w
            payload["objective"] = plan.allocation.objective
            payload["apps"] = {
                name: {"power_w": a.power_w, "excluded": a.excluded}
                for name, a in plan.allocation.apps.items()
            }
        if plan.duty_cycle is not None:
            payload["duty_cycle"] = {
                "on_s": plan.duty_cycle.on_s,
                "off_s": plan.duty_cycle.off_s,
                "charge_w": plan.duty_cycle.charge_w,
                "discharge_w": plan.duty_cycle.discharge_w,
            }
        self._trace.emit("allocation", payload)

    def _battery_trusted(self) -> bool:
        """Whether R4 consolidated duty cycling may rely on the ESD now."""
        if self._battery is None or not self._battery.available:
            return False
        if self._injector is not None and "battery" in self._injector.active_kinds():
            return False
        return True

    def _effective_cap_w(self) -> float:
        """The cap planning targets: reduced while telemetry is degraded,
        while a post-restart safe hold is in force, or while the defense
        distrusts any tenant (an undetected accomplice may still be burning
        unaccounted watts)."""
        cap = self.p_cap_w
        if self._watchdog.degraded or self._safe_hold_ticks > 0:
            cap *= 1.0 - DEGRADED_GUARD_BAND
        if self._trust.distrusted():
            cap *= 1.0 - GUARD_BAND
        return cap

    def begin_safe_hold(self, ticks: int) -> None:
        """Enter the guard-banded safe posture for the next ``ticks`` ticks.

        The supervisor calls this after a warm restart: the mediator was
        dead for a while, so the first allocations after recovery target the
        same reduced effective cap degraded telemetry would - covering any
        drift the checkpoint+journal could not see. A zero or negative count
        is a no-op (the default posture), keeping restored runs bit-identical
        to uninterrupted ones unless the caller opts in.
        """
        if ticks <= 0:
            return
        self._safe_hold_ticks = ticks
        if self._managed:
            self.reallocate()  # adopt the guard-banded cap immediately

    def _get_fallback_policy(self) -> Policy:
        if self._fallback_policy is None:
            self._fallback_policy = AppResAwarePolicy()
        return self._fallback_policy

    def _guard_plan(self, plan: AllocationPlan) -> AllocationPlan:
        """Per-application RAPL guard: enforce each app's allocated budget
        by *true* power.

        Utility-aware policies choose knobs from estimates; when estimation
        error makes a chosen knob's true draw exceed the app's budget, the
        hardware power limit would clamp it. The guard models that clamp by
        replacing the knob with the best true-power-feasible one under the
        same budget (and suspending the app when nothing fits). This is the
        mechanism that keeps the wall under the cap despite estimation
        error - the performance cost of bad estimates remains, through
        mis-divided budgets and under-used allocations.
        """
        if plan.mode is CoordinationMode.IDLE or plan.allocation is None:
            return plan

        def trimmed(name: str, knob: KnobSetting, budget_w: float) -> KnobSetting | None:
            oracle = self._oracle[name]
            if oracle.power_w[oracle.index_of(knob)] <= budget_w + 1e-9:
                return knob
            idx = oracle.best_index_under(budget_w)
            return oracle.knobs[idx] if idx is not None else None

        if plan.mode is CoordinationMode.SPACE:
            knobs: dict[str, KnobSetting] = {}
            for name, knob in plan.knobs.items():
                budget = plan.allocation.apps[name].power_w
                new = trimmed(name, knob, budget)
                if new is not None:
                    knobs[name] = new
            return AllocationPlan(
                mode=plan.mode,
                p_cap_w=plan.p_cap_w,
                allocation=plan.allocation,
                knobs=knobs,
            )

        if plan.mode is CoordinationMode.TIME:
            budget = self._server.config.dynamic_budget_w(plan.p_cap_w)
            slots = []
            for slot in plan.slots:
                slot_knobs: dict[str, KnobSetting] = {}
                apps = []
                for name in slot.apps:
                    new = trimmed(name, slot.knobs[name], budget)
                    if new is not None:
                        apps.append(name)
                        slot_knobs[name] = new
                if apps:
                    slots.append(
                        TimeSlot(apps=tuple(apps), duration_s=slot.duration_s, knobs=slot_knobs)
                    )
            if not slots:
                return AllocationPlan(
                    mode=CoordinationMode.IDLE,
                    p_cap_w=plan.p_cap_w,
                    allocation=plan.allocation,
                )
            return AllocationPlan(
                mode=plan.mode,
                p_cap_w=plan.p_cap_w,
                allocation=plan.allocation,
                slots=tuple(slots),
            )

        # ESD: trim the ON-phase knobs to their budgets, then recompute the
        # Eq. (5) schedule from the *true* ON-phase powers (the paper tunes
        # the duty cycle from measured draws).
        assert self._battery is not None
        knobs = {}
        true_sum = 0.0
        for name, knob in plan.knobs.items():
            budget = plan.allocation.apps[name].power_w
            new = trimmed(name, knob, budget)
            if new is not None:
                knobs[name] = new
                oracle = self._oracle[name]
                true_sum += float(oracle.power_w[oracle.index_of(new)])
        if not knobs:
            return AllocationPlan(
                mode=CoordinationMode.IDLE,
                p_cap_w=plan.p_cap_w,
                allocation=plan.allocation,
            )
        cfg = self._server.config
        cycle = compute_duty_cycle(
            p_idle_w=cfg.p_idle_w,
            p_cm_w=cfg.p_cm_w,
            sum_app_w=true_sum,
            p_cap_w=plan.p_cap_w,
            efficiency=self._battery.efficiency,
            period_s=cfg.duty_cycle_period_s,
        )
        return AllocationPlan(
            mode=plan.mode,
            p_cap_w=plan.p_cap_w,
            allocation=plan.allocation,
            knobs=knobs,
            duty_cycle=cycle,
        )

    # ------------------------------------------------------------- execution

    def run_for(self, duration_s: float) -> None:
        """Advance the simulation, handling events as they arise.

        On the scalar engine this is the literal tick loop, the reference.
        On the vector engine, steady stretches are replayed as fast
        segments (:func:`repro.engine.planner.advance`), bit-identical to
        that loop, and every other tick is one scalar tick.

        Raises:
            ConfigurationError: on a non-positive duration.
        """
        if duration_s <= 0:
            raise ConfigurationError("duration_s must be positive")
        end = self._server.now_s + duration_s
        if self._server.engine == "vector":
            from repro.engine.planner import advance  # the planner imports this module

            advance(self, end)
            return
        while self._server.now_s < end - 1e-9:
            self._one_tick()

    def step(self) -> None:
        """Advance exactly one tick (the supervisor's unit of progress)."""
        self._one_tick()

    def _one_tick(self) -> None:
        dt = self._dt_s
        self._trace.begin_tick(len(self._timeline), self._server.now_s)
        if self._injector is not None:
            with self._profiler.phase("faults"):
                self._apply_faults()
        if self._adversary.specs():
            with self._profiler.phase("adversary"):
                self._drive_adversaries()
        with self._profiler.phase("actuate"):
            self._service_actuation()
        with self._profiler.phase("coordinate"):
            action = self._coordinator.step(dt)
        # The knobs the engine is about to compute with; the defense checks
        # attribution against these, not against whatever a same-tick
        # emergency throttle may have actuated afterwards.
        tick_knobs = (
            {name: self._server.knobs.knob_of(name) for name in self._managed}
            if self._trust.config.enabled and self._managed
            else {}
        )
        with self._profiler.phase("engine"):
            result = self._server.tick(
                dt,
                esd_charge_w=action.esd_charge_w,
                esd_discharge_w=action.esd_discharge_w,
                deep_sleep=action.deep_sleep,
            )
        with self._profiler.phase("telemetry"):
            observed_w, fresh = self._sample_wall_power(dt)
            self._watch_telemetry(fresh)
            breach = self._police_cap(result)
        plan = self._coordinator.plan
        record = TickRecord(
            time_s=result.time_s,
            p_cap_w=self.p_cap_w,
            wall_w=result.breakdown.wall_w,
            mode=plan.mode if plan is not None else CoordinationMode.IDLE,
            app_power_w=dict(result.breakdown.app_w),
            app_knobs={
                name: self._server.knobs.knob_of(name)
                for name in result.breakdown.app_w
            },
            progressed=dict(result.progressed),
            battery_soc=self._battery.soc if self._battery is not None else None,
            observed_wall_w=observed_w,
            degraded=self._watchdog.degraded,
            breach=breach,
        )
        self._timeline.append(record)
        self._record_tick(record, action)
        if tick_knobs:
            # Must run before the phase-boundary swap: the evidence is
            # checked against the profile the engine actually ticked with.
            with self._profiler.phase("defense"):
                self._observe_trust(result, tick_knobs)
        self._check_phase_boundaries()
        with self._profiler.phase("events"):
            for event in self._accountant.poll(result, telemetry_fresh=fresh):
                self._handle_event(event)
        if self._safe_hold_ticks > 0:
            self._safe_hold_ticks -= 1
            if self._safe_hold_ticks == 0 and self._managed:
                self.reallocate()  # the hold expired: restore the full cap

    def _record_tick(self, record: TickRecord, action) -> None:
        """Feed the tick into the metrics registry and the trace bus."""
        self._metrics.counter("mediator.ticks").inc()
        self._metrics.histogram("mediator.wall_w").observe(record.wall_w)
        self._metrics.histogram("mediator.headroom_w").observe(
            record.p_cap_w - record.wall_w
        )
        if action.esd_charge_w > 0:
            self._metrics.histogram("esd.charge_w").observe(action.esd_charge_w)
        if action.esd_discharge_w > 0:
            self._metrics.histogram("esd.discharge_w").observe(action.esd_discharge_w)
        if not self._trace.active:
            return
        for kind, payload in _tick_events(
            record, action.esd_charge_w, action.esd_discharge_w
        ):
            self._trace.emit(kind, payload)

    # ------------------------------------------------------------- resilience

    def _apply_faults(self) -> None:
        """Advance the fault injector and journal its window transitions."""
        assert self._injector is not None
        now = self._server.now_s
        crashed, transitions = self._injector.begin_tick(now)
        battery_changed = False
        rapl_recovered = False
        for tr in transitions:
            kind, mode = tr.spec.kind, tr.spec.mode
            if tr.entered:
                self._accountant.notify_fault(kind, tr.target, detail=mode)
                if not tr.spec.instantaneous:
                    self._fault_stats.open_episode(kind, tr.target, now)
            else:
                self._accountant.notify_recovery(kind, tr.target, detail=mode)
                self._fault_stats.close_episode(kind, tr.target, now)
                if kind == "rapl":
                    rapl_recovered = True
            if kind == "battery":
                battery_changed = True
        for app in crashed:
            self._fault_stats.crashes += 1
            if app in self._managed:
                self.remove_application(app, completed=False)
        if battery_changed and self._managed and self._policy.uses_esd:
            # Degrade R4 to the fallback (or restore it) right away.
            self.reallocate()
        elif rapl_recovered and self._managed:
            # Apps defensively suspended (or escalated) while the actuator
            # was faulted stay parked until a plan re-actuates them; do it
            # now that writes verify again.
            self.reallocate()

    def _service_actuation(self) -> None:
        """Run the retry loop and journal actuation fault episodes."""
        now = self._server.now_s
        for app in self._server.knobs.failed_writes():
            if app not in self._actuation_faulted:
                self._actuation_faulted.add(app)
                self._accountant.notify_fault(
                    "actuation", app, detail="knob write failed readback verification"
                )
                self._fault_stats.open_episode("actuation", app, now)
        verified, escalated = self._retrier.service(self._fault_stats)
        for app in escalated:
            self._actuation_faulted.discard(app)
            self._accountant.notify_recovery(
                "actuation", app, detail="suspended after exhausting retries"
            )
            self._fault_stats.close_episode("actuation", app, now)
        still_failed = set(self._server.knobs.failed_writes())
        for app in sorted(self._actuation_faulted - still_failed):
            self._actuation_faulted.discard(app)
            self._accountant.notify_recovery(
                "actuation", app, detail="knob write verified"
            )
            self._fault_stats.close_episode("actuation", app, now)
        # A retry that verified may have left the app defensively suspended
        # by the coordinator; re-adopting the plan resumes it properly.
        if verified and self._managed and any(
            app in self._managed and self._server.knobs.is_suspended(app)
            for app in verified
        ):
            self.reallocate()

    def _sample_wall_power(self, dt_s: float) -> tuple[float | None, bool]:
        """Read the wall-power sensor: psys counter delta over the tick.

        Counter differencing is wraparound-safe (the 32-bit ``energy_uj``
        register wraps every ~54 s at the paper's 80 W cap). The true sample
        then passes through any active telemetry fault.
        """
        energy = self._server.rapl.read_energy_j("psys")
        true_sample = energy_delta_j(energy, self._last_psys_energy_j) / dt_s
        self._last_psys_energy_j = energy
        if self._injector is None:
            return true_sample, True
        value, fresh = self._injector.filter_wall_sample(true_sample)
        if value is None:
            self._fault_stats.dropped_samples += 1
        elif not fresh:
            self._fault_stats.stale_samples += 1
        return value, fresh

    def _watch_telemetry(self, fresh: bool) -> None:
        """Feed the watchdog; re-plan on degraded/recovered transitions."""
        transition = self._watchdog.observe(fresh)
        now = self._server.now_s
        if transition == "degraded":
            self._accountant.notify_fault(
                "telemetry-watchdog",
                detail="consecutive missing/stale wall samples; guard band widened",
            )
            self._fault_stats.open_episode("telemetry-watchdog", None, now)
            if self._managed:
                self.reallocate()  # adopt the reduced effective cap
        elif transition == "recovered":
            self._accountant.notify_recovery(
                "telemetry-watchdog", detail="fresh wall samples resumed"
            )
            self._fault_stats.close_episode("telemetry-watchdog", None, now)
            if self._managed:
                self.reallocate()  # restore the full cap
        if self._watchdog.degraded:
            self._fault_stats.degraded_ticks += 1

    def _police_cap(self, result) -> bool:
        """Detect a cap breach and respond within the same tick.

        Detection uses the engine's true wall power - the stand-in for a
        trusted out-of-band monitor, deliberately immune to telemetry
        faults. A first breach fires the coordinator's emergency floor
        throttle; a breach that *persists* into the next tick means the
        emergency path failed and the run is genuinely broken.
        """
        wall_w = result.breakdown.wall_w
        breach = wall_w > self.p_cap_w + 1e-6
        if breach:
            self._fault_stats.breach_ticks += 1
            self._fault_stats.open_episode("cap-breach", None, self._server.now_s)
            self._accountant.notify_fault(
                "cap-breach",
                detail=f"wall {wall_w:.3f} W over cap {self.p_cap_w:.3f} W",
            )
            if self._breach_last_tick:
                raise SimulationError(
                    f"wall power {wall_w:.3f} W still exceeds the cap "
                    f"{self.p_cap_w:.3f} W one tick after emergency throttling"
                )
            self._coordinator.emergency_throttle(self.p_cap_w)
            self._fault_stats.emergency_throttles += 1
        elif self._breach_last_tick:
            self._fault_stats.close_episode("cap-breach", None, self._server.now_s)
            self._accountant.notify_recovery(
                "cap-breach", detail="wall back under cap after emergency throttle"
            )
            if self._managed:
                self.reallocate()  # leave the emergency floors behind
        self._breach_last_tick = breach
        return breach

    # ---------------------------------------------------- adversary defense

    def _drive_adversaries(self) -> None:
        """Execute the registered attack specs for the coming tick."""
        esd = self._coordinator.esd_controller
        esd_on = bool(esd is not None and esd.in_on_phase)
        transitions = self._adversary.begin_tick(self._server.now_s, esd_on=esd_on)
        for app, kind, edge in transitions:
            self._metrics.counter(f"adversary.windows.{edge}").inc()
            self._trace.emit(
                f"adv-attack-{edge}",
                {"app": app, "kind": kind, "at_s": self._server.now_s},
            )

    def _observe_trust(self, result, tick_knobs: dict[str, KnobSetting]) -> None:
        """Feed one tick of evidence to the TrustScorer and act on it.

        Each managed app is cross-checked against the power/perf models the
        mediator already plans with. On any state-machine transition the
        posture changed, so the plan is rebuilt immediately (quarantine
        suspension, de-weighting, and the defense guard band all flow
        through :meth:`reallocate`).
        """
        observable = not self._server.heartbeats.in_blackout
        observations = []
        for name in sorted(self._managed):
            managed = self._managed[name]
            knob = tick_knobs.get(name)
            if knob is None:
                continue
            running = name in result.breakdown.app_w
            segment = self._segment_index(managed)
            observations.append(
                AppObservation(
                    app=name,
                    running=running,
                    claimed_rate=self._server.heartbeats.exact_rate(name),
                    attributed_w=result.breakdown.app_w.get(name, 0.0),
                    expected_w=self._server.power_model.app_power_w(
                        managed.profile, knob
                    ),
                    supported_rate=self._server.perf_model.rate(
                        managed.profile, knob
                    ),
                    fingerprint=(
                        knob.freq_ghz,
                        knob.cores,
                        knob.dram_power_w,
                        running,
                        -1 if segment is None else segment,
                    ),
                    observable=observable,
                )
            )
        transitions = self._trust.observe(len(self._timeline) - 1, observations)
        if not transitions:
            return
        trace_kind = {
            TrustState.SUSPECT: "adv-suspect",
            TrustState.QUARANTINED: "adv-quarantine",
            TrustState.PROBATION: "adv-probation",
            TrustState.TRUSTED: "adv-trusted",
        }
        for tr in transitions:
            self._metrics.counter(f"defense.transitions.{tr.to_state.value}").inc()
            self._trace.emit(
                trace_kind[tr.to_state],
                {
                    "app": tr.app,
                    "from": tr.from_state.value,
                    "score": tr.score,
                    "strikes": tr.strikes,
                },
            )
            if tr.to_state is TrustState.QUARANTINED:
                self._accountant.notify_fault(
                    "trust",
                    tr.app,
                    detail=f"{tr.from_state.value} -> {tr.to_state.value}",
                )
        self._metrics.gauge("defense.quarantined_apps").set(
            float(len(self._trust.quarantined_apps()))
        )
        # Only quarantine-machinery edges actuate a replan. A SUSPECT edge
        # must not: replanning changes the suspect's knob, which restarts
        # the efficiency-check cooldown - the defense's own actuation would
        # keep resetting its evidence and an inflator would oscillate at
        # SUSPECT forever. De-weighting of suspects still lands at the next
        # replan any other cause triggers.
        actuating = {TrustState.QUARANTINED, TrustState.PROBATION}
        if self._managed and any(
            tr.to_state in actuating or tr.from_state in actuating
            for tr in transitions
        ):
            self.reallocate()

    def _handle_event(self, event: Event) -> None:
        if isinstance(event, DepartureEvent):
            self._retire(event.app)
            if self._managed:
                self.reallocate()
        elif isinstance(event, PhaseChangeEvent):
            # Re-calibrate the deviating application, then re-allocate.
            self._refresh_views(event.app)
            self.reallocate()

    def _retire(self, app: str) -> ApplicationHandle:
        """Take a departing app off the server and every per-app ledger,
        keeping its final handle and peak rate."""
        handle = self._server.remove(app)
        self._finished[app] = handle
        self._finished_peaks[app] = self._managed.pop(app).peak_rate
        self._departures.append(app)
        self._estimates.pop(app, None)
        self._oracle.pop(app, None)
        self._adversary.forget(app)
        self._trust.forget(app)
        return handle

    def _check_phase_boundaries(self) -> None:
        """Swap phased profiles at their progress boundaries.

        The swap changes the app's true behaviour; the Accountant's E4
        detector then notices the power deviation and triggers
        re-calibration, exactly as on the real system.
        """
        for name, managed in self._managed.items():
            if managed.phased is None:
                continue
            handle = self._server.handle_of(name)
            before = managed.profile
            after = managed.phased.profile_at(handle.progress_fraction)
            if after is not before:
                managed.profile = after
                managed.peak_rate = self._width_peak_rate(after, name)
                handle.profile = after

    def _width_peak_rate(self, profile: WorkloadProfile, app: str) -> float:
        """Uncapped rate within the app's reserved core group.

        ``Perf_nocap`` for a narrow-group application is its best rate on
        the cores it actually owns - it can never reach the full-width peak.
        """
        width = self._server.topology.group_of(app).width
        cfg = self._server.config
        knob = KnobSetting(cfg.freq_max_ghz, min(width, cfg.cores_max), cfg.dram_power_max_w)
        return self._server.perf_model.rate(profile, knob)

    # ------------------------------------------------------------- learning

    def _refresh_views(self, app: str) -> None:
        """(Re)build the oracle and estimated candidate sets for one app.

        Both views are restricted to the app's core-group width: a knob
        asking for more cores than the group reserves cannot be actuated,
        so it must not be allocatable either.
        """
        with self._profiler.phase("learn"):
            self._metrics.counter("mediator.calibrations").inc()
            managed = self._managed[app]
            profile = managed.calibrated = managed.profile
            config = self._server.config
            width = self._server.topology.group_of(app).width
            oracle = self._oracle[app] = self._oracle_set(profile, width)
            if self._use_oracle or not self._policy.needs_learning:
                self._estimates[app] = oracle
                return
            estimator = self._get_estimator()
            samples: dict[KnobSetting, tuple[float, float]] = {}
            peak_power_w = float(np.max(oracle.power_w))
            for knob in self._sampler.select(config):
                power = self._server.power_model.app_power_w(profile, knob)
                perf = self._server.perf_model.rate(profile, knob)
                # An inflating tenant lies to the calibration pipeline too:
                # its sampled performance is distorted before measurement
                # noise, so the learned candidate set overrates it.
                perf = self._adversary.distort_calibration(
                    app, self._server.now_s, power, perf, peak_power_w
                )
                power = max(0.0, power + float(self._rng.normal(0.0, SAMPLE_POWER_NOISE_W)))
                perf = max(
                    0.0, perf * (1.0 + float(self._rng.normal(0.0, SAMPLE_PERF_NOISE_REL)))
                )
                if self._watchdog.degraded:
                    # Calibrating on an untrusted sensor: err toward
                    # over-estimating draw so allocations stay defensible.
                    power *= CONSERVATIVE_INFLATION
                samples[knob] = (power, perf)
            estimate = estimator.estimate(self._corpus, samples)
            estimated = CandidateSet.from_estimates(
                app, config, estimate.power_w, estimate.perf
            )
            if width < config.cores_max:
                estimated = estimated.subset(
                    [i for i, k in enumerate(estimated.knobs) if k.cores <= width],
                    rebase_nocap=True,
                )
            self._estimates[app] = estimated

    def _oracle_set(self, profile: WorkloadProfile, width: int) -> CandidateSet:
        """The true response of ``profile`` within a ``width``-core group."""
        config = self._server.config
        narrow = width < config.cores_max
        cache_key = None
        if self._oracle_cache is not None:
            # Fleet-wide reuse: the oracle set is a pure function of
            # (profile, config, width restriction) - frozen, hashable
            # values - so allocation epochs across a whole fleet build
            # each distinct CandidateSet once. The sets are treated as
            # read-only by every consumer.
            cache_key = (profile, config, width if narrow else None)
            cached = self._oracle_cache.get(cache_key)
            if cached is not None:
                return cached
        oracle = CandidateSet.from_models(
            profile, config, power_model=self._server.power_model
        )
        if narrow:
            oracle = oracle.subset(
                [i for i, k in enumerate(oracle.knobs) if k.cores <= width],
                rebase_nocap=True,
            )
        if cache_key is not None:
            self._oracle_cache[cache_key] = oracle
        return oracle

    def _get_estimator(self) -> CollaborativeEstimator:
        if self._estimator is None:
            self._estimator = CollaborativeEstimator()
            self._estimator.train(self._corpus)
        return self._estimator

    def _get_population(self) -> CandidateSet:
        """The average application's surface (for Server+Res-Aware)."""
        if self._population is None:
            mask = self._corpus.observed_mask()
            power = self._corpus.power_rows()
            perf = self._corpus.perf_rows()
            if power.shape[0] == 0:
                raise ConfigurationError("corpus is empty; cannot build population view")
            power = np.where(mask, power, np.nan)
            perf = np.where(mask, perf, np.nan)
            scales = np.nanmax(perf, axis=1, keepdims=True)
            mean_power = np.nanmean(power, axis=0)
            mean_perf = np.nanmean(perf / scales, axis=0)
            self._population = CandidateSet.from_estimates(
                "population-average", self._server.config, mean_power, mean_perf
            )
        return self._population

    # -------------------------------------------------------------- metrics

    def normalized_throughput(self, app: str, *, since_s: float = 0.0) -> float:
        """``(work done / elapsed) / peak_rate`` over the recorded timeline.

        This is the per-application term of objective (1) measured over the
        experiment window rather than predicted by the allocator.
        """
        records = [r for r in self._timeline if r.time_s > since_s]
        if not records:
            return 0.0
        work = sum(r.progressed.get(app, 0.0) for r in records)
        # The first record's tick started dt before its timestamp; the
        # window spans from there - otherwise that tick's work is counted
        # against too little time and throughput can read slightly above 1.
        elapsed = records[-1].time_s - (records[0].time_s - self._dt_s)
        if elapsed <= 0:
            return 0.0
        return (work / elapsed) / self.peak_rate_of(app)

    def server_objective(self, *, since_s: float = 0.0) -> float:
        """Sum of normalized throughputs over all known apps (objective 1)."""
        names = set(self._managed) | set(self._finished)
        return sum(self.normalized_throughput(n, since_s=since_s) for n in names)
