"""Executes an :class:`AdversarySchedule` against a simulated server.

The engine is the attacker's runtime: each tick it decides, per registered
spec, whether the attack window is open and whether this tick is a burst
tick, then idempotently programs the server's strategic-tenant hooks
(:meth:`~repro.server.server.SimulatedServer.set_parasitic_power_w`,
:meth:`~repro.server.server.SimulatedServer.set_heartbeat_inflation`). It
never touches the mediator - the defense must catch the attacks through the
same telemetry an honest mediator has.

Determinism: the only randomness is the probe attack's initial phase jitter,
drawn once per spec from its own ``np.random.default_rng(spec.seed ^ base)``
stream. Honest-tenant RNG streams (server noise, mediator calibration) are
never consulted, so an attack schedule cannot perturb an honest tenant's
trajectory except through the physics of the attack itself - the
RNG-isolation audit pins this.
"""

from __future__ import annotations

import numpy as np

from repro.adversary.plan import AdversarySchedule, AdversarySpec
from repro.errors import AdversaryError
from repro.server.server import SimulatedServer


class AdversaryEngine:
    """Drives strategic-tenant behaviour on one server.

    Args:
        server: The substrate whose adversary hooks the engine programs.
        schedule: The initial attack schedule (may be empty; service mode
            registers specs one by one as adversarial clients arrive).
    """

    def __init__(
        self, server: SimulatedServer, schedule: AdversarySchedule | None = None
    ) -> None:
        self._server = server
        self._specs: dict[str, AdversarySpec] = {}
        self._base_seed = 0 if schedule is None else schedule.seed
        self._phase_jitter: dict[str, float] = {}
        self._window_open: dict[str, bool] = {}
        self._freeride_edge_s: dict[str, float | None] = {}
        self._prev_esd_on = False
        if schedule is not None:
            for spec in schedule.specs:
                self.register(spec)

    # ------------------------------------------------------------ lifecycle

    def register(self, spec: AdversarySpec) -> None:
        """Add one attacker. Service mode calls this at admission time.

        Re-registering an app's *identical* spec is a no-op - journal
        replay re-drives admissions and must be idempotent.

        Raises:
            AdversaryError: when the app already has a different strategy.
        """
        existing = self._specs.get(spec.app)
        if existing == spec:
            return
        if existing is not None:
            raise AdversaryError(
                f"application {spec.app!r} already has a registered adversary spec"
            )
        self._specs[spec.app] = spec
        if spec.kind == "probe":
            rng = np.random.default_rng((self._base_seed << 8) ^ spec.seed)
            self._phase_jitter[spec.app] = float(rng.uniform(0.0, spec.period_s))
        self._window_open[spec.app] = False
        if spec.kind == "freeride":
            self._freeride_edge_s[spec.app] = None

    def forget(self, app: str) -> None:
        """Drop an attacker on departure, clearing its hooks if still set."""
        if app not in self._specs:
            return
        self._clear_hooks(self._specs[app])
        del self._specs[app]
        self._phase_jitter.pop(app, None)
        self._window_open.pop(app, None)
        self._freeride_edge_s.pop(app, None)

    def specs(self) -> list[AdversarySpec]:
        """Registered specs, sorted by app name."""
        return [self._specs[app] for app in sorted(self._specs)]

    # ------------------------------------------------------------- stepping

    def begin_tick(self, now_s: float, *, esd_on: bool = False) -> list[tuple[str, str, str]]:
        """Program the hooks for the tick starting at ``now_s``.

        Args:
            now_s: Simulation time at the *start* of the tick.
            esd_on: Whether the coordinator is in an ESD discharge ON phase
                (the freerider's cue; read at begin-tick, so it carries the
                one-tick lag a real tenant watching the bus would have).

        Returns:
            Window transitions as ``(app, kind, "start"|"stop")`` tuples,
            for the caller to trace.
        """
        transitions: list[tuple[str, str, str]] = []
        esd_edge = esd_on and not self._prev_esd_on
        for app in sorted(self._specs):
            spec = self._specs[app]
            active = spec.active_at(now_s) and self._is_admitted(app)
            was_open = self._window_open[app]
            if active != was_open:
                self._window_open[app] = active
                transitions.append((app, spec.kind, "start" if active else "stop"))
                if not active:
                    self._clear_hooks(spec)
                    continue
            if not active:
                continue
            if spec.kind == "inflate":
                self._server.set_heartbeat_inflation(app, 1.0 + spec.magnitude)
            elif spec.kind in ("probe", "spike"):
                burst = self._in_periodic_burst(spec, now_s)
                self._server.set_parasitic_power_w(
                    app, spec.magnitude if burst else 0.0
                )
            else:  # freeride
                if esd_edge:
                    self._freeride_edge_s[app] = now_s
                edge = self._freeride_edge_s[app]
                burst = (
                    esd_on
                    and edge is not None
                    and now_s - edge < spec.burst_s - 1e-9
                )
                self._server.set_parasitic_power_w(
                    app, spec.magnitude if burst else 0.0
                )
        self._prev_esd_on = esd_on
        return transitions

    def distort_calibration(
        self, app: str, now_s: float, power_w: float, perf: float, peak_power_w: float
    ) -> float:
        """An inflating tenant's lie to the calibration pipeline.

        The distortion is *shape-changing*, not a uniform scale: high-power
        knobs claim proportionally more extra performance, so the attacker
        looks like a workload that converts marginal watts into work
        unusually well and wins budget from the knapsack. (A uniform lie
        would cancel in the normalized ``perf / perf_nocap`` objective.)
        """
        spec = self._specs.get(app)
        if spec is None or spec.kind != "inflate" or not spec.active_at(now_s):
            return perf
        if peak_power_w <= 0.0:
            return perf
        shape = min(1.0, max(0.0, power_w / peak_power_w))
        return perf * (1.0 + spec.magnitude * shape)

    # -------------------------------------------------------------- helpers

    def _is_admitted(self, app: str) -> bool:
        return app in self._server.applications()

    def _in_periodic_burst(self, spec: AdversarySpec, now_s: float) -> bool:
        period = spec.period_s
        if spec.kind == "spike":
            period = self._server.config.duty_cycle_period_s
        offset = self._phase_jitter.get(spec.app, 0.0)
        phase = (now_s - spec.start_s + offset) % period
        # The modulo can land at period - epsilon when it means zero.
        return phase < spec.burst_s - 1e-9 or phase > period - 1e-9

    def _clear_hooks(self, spec: AdversarySpec) -> None:
        if spec.app not in self._server.applications():
            return
        if spec.kind == "inflate":
            self._server.set_heartbeat_inflation(spec.app, 1.0)
        else:
            self._server.set_parasitic_power_w(spec.app, 0.0)

    # ---------------------------------------------------------- persistence

    def state_dict(self) -> dict:
        return {
            "specs": {app: spec.to_dict() for app, spec in self._specs.items()},
            "base_seed": self._base_seed,
            "phase_jitter": dict(self._phase_jitter),
            "window_open": dict(self._window_open),
            "freeride_edge_s": dict(self._freeride_edge_s),
            "prev_esd_on": self._prev_esd_on,
        }

    def load_state_dict(self, state: dict) -> None:
        self._specs = {
            app: AdversarySpec.from_dict(data)
            for app, data in state["specs"].items()
        }
        self._base_seed = int(state["base_seed"])
        self._phase_jitter = {
            app: float(v) for app, v in state["phase_jitter"].items()
        }
        self._window_open = {
            app: bool(v) for app, v in state["window_open"].items()
        }
        self._freeride_edge_s = {
            app: None if v is None else float(v)
            for app, v in state["freeride_edge_s"].items()
        }
        self._prev_esd_on = bool(state["prev_esd_on"])
