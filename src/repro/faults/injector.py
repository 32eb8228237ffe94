"""Fault injector: turns a :class:`~repro.faults.plan.FaultPlan` into
substrate misbehaviour, one tick at a time.

The injector sits *between* the experiment clock and the server substrate.
Every mediator tick calls :meth:`FaultInjector.begin_tick` with the current
time; the injector compares it against each spec's window and

* installs/removes :class:`~repro.server.knobs.KnobController` hooks for
  RAPL actuation faults;
* flips the battery's availability/derate/fade state;
* toggles the heartbeat monitor's blackout for telemetry faults;
* marks application handles hung and reports crash victims (the mediator
  performs the actual forced E3 removal, since departure bookkeeping lives
  there);
* filters wall-power samples through :meth:`filter_wall_sample`.

It returns :class:`FaultTransition` descriptors for every window entered or
left so the mediator can journal matching
:class:`~repro.core.events.FaultEvent` / :class:`~repro.core.events.RecoveryEvent`
pairs. All stochastic effects draw from one ``numpy`` generator seeded from
the plan, so a (plan, seed) pair replays bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.faults.plan import SCOPED_KINDS, FaultPlan, FaultSpec
from repro.server.config import KnobSetting
from repro.server.server import SimulatedServer

try:  # ESD support is optional at the injector level
    from repro.esd.battery import LeadAcidBattery
except ImportError:  # pragma: no cover - esd is part of the package
    LeadAcidBattery = None  # type: ignore[assignment]


@dataclass(frozen=True)
class FaultTransition:
    """One fault window opening (``entered=True``) or closing.

    Attributes:
        spec: The fault whose window changed state.
        entered: ``True`` on activation, ``False`` on clearance.
        target: Resolved target name (specs with ``target=None`` get the
            name picked at fire time), or ``None`` for server-wide faults.
    """

    spec: FaultSpec
    entered: bool
    target: str | None = None


class FaultInjector:
    """Applies a fault plan against one server (and optionally its battery).

    Args:
        plan: The schedule to execute.
        server: The server whose substrate gets degraded.
        battery: The ESD instance targeted by battery faults; ``None`` when
            the run has no ESD (battery specs are then inert).
    """

    def __init__(
        self,
        plan: FaultPlan,
        server: SimulatedServer,
        *,
        battery: "LeadAcidBattery | None" = None,
    ) -> None:
        self._plan = plan
        self._server = server
        self._battery = battery
        self._rng = np.random.default_rng(plan.seed)
        self._active: dict[int, FaultSpec] = {}  # index in plan.specs -> spec
        self._fired: set[int] = set()  # instantaneous specs already applied
        self._resolved_targets: dict[int, str] = {}
        self._pre_fault_knobs: dict[str, KnobSetting] = {}  # stale readback
        self._last_wall_sample_w: float | None = None

    @property
    def plan(self) -> FaultPlan:
        return self._plan

    def active_kinds(self) -> set[str]:
        """Fault classes with at least one window currently open."""
        return {spec.kind for spec in self._active.values()}

    # ------------------------------------------------------------ persistence

    def state_dict(self) -> dict:
        """Snapshot the injector's progress through its plan.

        Specs are referenced by their index into ``plan.specs`` (the plan
        itself travels in the checkpoint's recipe), so the snapshot stays
        small and the restored injector points at the same frozen specs.
        """
        return {
            "active": sorted(self._active),
            "fired": sorted(self._fired),
            "resolved_targets": {
                str(idx): name for idx, name in self._resolved_targets.items()
            },
            "pre_fault_knobs": {
                app: knob.to_json() for app, knob in self._pre_fault_knobs.items()
            },
            "last_wall_sample_w": self._last_wall_sample_w,
            "rng": self._rng.bit_generator.state,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot exactly.

        Re-installs the knob-controller hooks to match the restored active
        windows - hooks are closures and cannot be serialized, but they are
        pure functions of the active fault set.
        """
        self._active = {int(idx): self._plan.specs[int(idx)] for idx in state["active"]}
        self._fired = {int(idx) for idx in state["fired"]}
        self._resolved_targets = {
            int(idx): name for idx, name in state["resolved_targets"].items()
        }
        self._pre_fault_knobs = {
            app: KnobSetting.from_json(raw)
            for app, raw in state["pre_fault_knobs"].items()
        }
        last = state["last_wall_sample_w"]
        self._last_wall_sample_w = None if last is None else float(last)
        self._rng.bit_generator.state = state["rng"]
        self._sync_hooks()

    # ---------------------------------------------------------------- ticking

    def begin_tick(self, now_s: float) -> tuple[list[str], list[FaultTransition]]:
        """Advance fault state to ``now_s`` (call once per mediator tick,
        *before* planning/coordination).

        Returns:
            ``(crashed, transitions)`` - the applications that must be
            force-departed this tick, and every fault window that opened or
            closed since the previous call.
        """
        crashed: list[str] = []
        transitions: list[FaultTransition] = []
        for idx, spec in enumerate(self._plan.specs):
            if spec.kind in SCOPED_KINDS:
                # Cluster- or hierarchy-scope fault: a whole server, PDU, or
                # rack dies. The per-server injector has no server *set* to
                # act on; the cluster and hierarchy layers convert these
                # specs into outage windows instead.
                continue
            if spec.instantaneous:
                if idx not in self._fired and now_s >= spec.start_s:
                    self._fired.add(idx)
                    target = self._fire_instant(idx, spec, crashed)
                    transitions.append(
                        FaultTransition(spec=spec, entered=True, target=target)
                    )
                continue
            inside = spec.start_s <= now_s < spec.end_s
            if inside and idx not in self._active:
                self._active[idx] = spec
                target = self._enter_window(idx, spec)
                transitions.append(
                    FaultTransition(spec=spec, entered=True, target=target)
                )
            elif not inside and idx in self._active:
                del self._active[idx]
                target = self._exit_window(idx, spec)
                transitions.append(
                    FaultTransition(spec=spec, entered=False, target=target)
                )
        self._sync_hooks()
        return crashed, transitions

    # ------------------------------------------------------------- telemetry

    def filter_wall_sample(self, true_w: float) -> tuple[float | None, bool]:
        """Pass one true wall-power reading through active telemetry faults.

        Returns:
            ``(value, fresh)``: the value the mediator's sensor reports
            (``None`` for a dropped sample) and whether it reflects the
            current tick. Stale samples repeat the last healthy value with
            ``fresh=False``; noisy samples are fresh but perturbed.
        """
        mode = self._telemetry_mode()
        if mode is None:
            self._last_wall_sample_w = true_w
            return true_w, True
        if mode == "drop":
            return None, False
        if mode == "stale":
            if self._last_wall_sample_w is None:
                return None, False
            return self._last_wall_sample_w, False
        # mode == "noise": seeded gaussian, truncated at zero like real
        # counter-difference estimates.
        spec = next(
            s for s in self._active.values()
            if s.kind == "telemetry" and s.mode == "noise"
        )
        noisy = max(0.0, true_w + float(self._rng.normal(0.0, spec.magnitude)))
        self._last_wall_sample_w = noisy
        return noisy, True

    def _telemetry_mode(self) -> str | None:
        """The most severe active telemetry mode (drop > stale > noise)."""
        modes = {s.mode for s in self._active.values() if s.kind == "telemetry"}
        for mode in ("drop", "stale", "noise"):
            if mode in modes:
                return mode
        return None

    # ------------------------------------------------------------- internals

    def _resolve_app(self, idx: int, spec: FaultSpec) -> str | None:
        """Pick (and remember) the application a spec targets."""
        if idx in self._resolved_targets:
            return self._resolved_targets[idx]
        if spec.target is not None:
            name = spec.target
        else:
            candidates = [
                app for app in self._server.applications()
                if not self._server.handle_of(app).completed
            ]
            if not candidates:
                return None
            name = candidates[0]
        self._resolved_targets[idx] = name
        return name

    def _fire_instant(self, idx: int, spec: FaultSpec, crashed: list[str]) -> str | None:
        if spec.kind == "app":  # crash
            victim = self._resolve_app(idx, spec)
            if victim is not None and victim in self._server.applications():
                crashed.append(victim)
            return victim
        # battery fade
        if self._battery is not None:
            self._battery.apply_capacity_fade(spec.magnitude)
        return None

    def _enter_window(self, idx: int, spec: FaultSpec) -> str | None:
        if spec.kind == "battery" and self._battery is not None:
            if spec.mode == "outage":
                self._battery.set_available(False)
            elif spec.mode == "derate":
                self._battery.derate_discharge(spec.magnitude)
        elif spec.kind == "app":  # hang
            victim = self._resolve_app(idx, spec)
            if victim is not None and victim in self._server.applications():
                self._server.handle_of(victim).hung = True
            return victim
        elif spec.kind == "telemetry":
            self._server.heartbeats.set_blackout(True)
        elif spec.kind == "rapl" and spec.mode == "stale":
            # Snapshot current knobs: readback will keep reporting these.
            knobs = self._server.knobs
            self._pre_fault_knobs = {
                app: knobs.knob_of(app) for app in knobs.attached()
            }
        return None

    def _exit_window(self, idx: int, spec: FaultSpec) -> str | None:
        if spec.kind == "battery" and self._battery is not None:
            if spec.mode == "outage":
                self._battery.set_available(True)
            elif spec.mode == "derate":
                self._battery.restore_discharge()
        elif spec.kind == "app":  # hang clears
            victim = self._resolved_targets.get(idx)
            if victim is not None and victim in self._server.applications():
                self._server.handle_of(victim).hung = False
            return victim
        elif spec.kind == "telemetry":
            if not any(
                s.kind == "telemetry" for s in self._active.values()
            ):
                self._server.heartbeats.set_blackout(False)
        elif spec.kind == "rapl" and spec.mode == "stale":
            self._pre_fault_knobs = {}
        return None

    def _sync_hooks(self) -> None:
        """Install or remove knob-controller hooks to match active faults."""
        knobs = self._server.knobs
        rapl_modes = {s.mode for s in self._active.values() if s.kind == "rapl"}
        if "drop" in rapl_modes:
            knobs.actuation_hook = lambda app, requested, current: None
        elif "partial" in rapl_modes:
            # Torn write: only the DVFS field lands; cores/DRAM keep their
            # previous values.
            knobs.actuation_hook = lambda app, requested, current: KnobSetting(
                requested.freq_ghz, current.cores, current.dram_power_w
            )
        else:
            knobs.actuation_hook = None
        if "stale" in rapl_modes:
            pre = self._pre_fault_knobs
            knobs.readback_hook = lambda app, true: pre.get(app, true)
        else:
            knobs.readback_hook = None
