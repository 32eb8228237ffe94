"""Fine-grained hardware power isolation: per-application powercap zones.

The paper's future-work item (ii): "hardware mechanisms for fine-grained
power isolation in these shared servers". Today's RAPL exposes package- and
DRAM-level limits; this module models the natural next step - a *per
-application* power zone with hardware closed-loop enforcement, analogous to
the Linux powercap framework's constraint objects but scoped to one core
group + DIMM share.

Each :class:`PowercapZone` watches its application's measured draw over a
sliding window and walks the utility-blind throttle path (DVFS first, then
idle injection, then DRAM) one step at a time:

* sustained draw above the limit -> throttle one step;
* sustained draw below the limit minus a hysteresis margin -> unthrottle
  one step (the zone recovers performance when headroom appears).

:class:`HardwarePowercap` runs one zone per application against a
:class:`~repro.server.server.SimulatedServer`. It gives the *isolation*
half of the paper's story without any software policy: with zones set, a
misbehaving application physically cannot steal budget from its neighbours.
What hardware zones cannot do - and the benchmark shows it - is choose
*good* limits or knob mixes: that remains the mediator's job, which is
exactly the paper's division of labour between mechanism and policy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import ConfigurationError, SchedulingError
from repro.server.config import KnobSetting, ServerConfig
from repro.server.knobs import hardware_throttle_path
from repro.server.server import SimulatedServer, TickResult


@dataclass
class ZoneStats:
    """Lifetime counters of one zone (reporting).

    Attributes:
        throttle_steps: Times the controller stepped down the path.
        unthrottle_steps: Times it stepped back up.
        violation_ticks: Ticks whose instantaneous draw exceeded the limit
            (transients the closed loop subsequently corrected).
        failed_actuations: Knob writes that did not verify on readback
            (actuation faults); the loop re-asserts them every tick until
            one sticks.
    """

    throttle_steps: int = 0
    unthrottle_steps: int = 0
    violation_ticks: int = 0
    failed_actuations: int = 0


class PowercapZone:
    """Closed-loop power limit for one application.

    Args:
        app: The application this zone encloses.
        limit_w: Average-power limit for the zone.
        config: Knob space (provides the throttle path).
        window_s: Averaging window of the control loop.
        hysteresis: Fractional band below the limit in which the controller
            holds (no unthrottling); prevents limit-cycling.
        max_width: The app's core-group width; path knobs needing more
            cores are skipped.
    """

    def __init__(
        self,
        app: str,
        limit_w: float,
        config: ServerConfig,
        *,
        window_s: float = 1.0,
        hysteresis: float = 0.08,
        max_width: int | None = None,
    ) -> None:
        if limit_w <= 0:
            raise ConfigurationError("zone limit must be positive")
        if window_s <= 0:
            raise ConfigurationError("window_s must be positive")
        if not 0.0 <= hysteresis < 1.0:
            raise ConfigurationError("hysteresis must be in [0, 1)")
        self.app = app
        self._limit_w = limit_w
        self._window_s = window_s
        self._hysteresis = hysteresis
        width = max_width if max_width is not None else config.cores_max
        self._path = [
            knob for knob in hardware_throttle_path(config) if knob.cores <= width
        ]
        if not self._path:
            raise ConfigurationError("no feasible knobs for this zone width")
        self._position = 0
        self._samples: deque[tuple[float, float]] = deque()
        self.stats = ZoneStats()

    @property
    def limit_w(self) -> float:
        return self._limit_w

    @limit_w.setter
    def limit_w(self, value: float) -> None:
        if value <= 0:
            raise ConfigurationError("zone limit must be positive")
        self._limit_w = value

    @property
    def position(self) -> int:
        """Current index on the throttle path (0 = unthrottled)."""
        return self._position

    @property
    def knob(self) -> KnobSetting:
        """The setting the zone currently enforces."""
        return self._path[self._position]

    def observe(self, time_s: float, power_w: float) -> KnobSetting | None:
        """Feed one measured sample; returns a new knob when the loop acts.

        The controller acts at most once per full window of samples, like
        RAPL's windowed average enforcement.
        """
        if power_w > self._limit_w + 1e-9:
            self.stats.violation_ticks += 1
        self._samples.append((time_s, power_w))
        cutoff = time_s - self._window_s
        while self._samples and self._samples[0][0] <= cutoff:
            self._samples.popleft()
        span = time_s - self._samples[0][0]
        if span < self._window_s * 0.9:
            return None  # not enough history yet
        average = sum(p for _, p in self._samples) / len(self._samples)
        if average > self._limit_w and self._position + 1 < len(self._path):
            self._position += 1
            self.stats.throttle_steps += 1
            self._samples.clear()
            return self.knob
        if (
            average < self._limit_w * (1.0 - self._hysteresis)
            and self._position > 0
        ):
            self._position -= 1
            self.stats.unthrottle_steps += 1
            self._samples.clear()
            return self.knob
        return None


class HardwarePowercap:
    """Per-application zones enforced against one simulated server.

    Drive it from the simulation loop::

        powercap = HardwarePowercap(server)
        powercap.set_zone("kmeans", 12.0)
        while ...:
            result = server.tick(dt)
            powercap.on_tick(result)

    Zones act through the same knob controller as everything else, so a
    zone and a software policy must not manage the same application at the
    same time (the same restriction real RAPL zones have against userspace
    governors).
    """

    def __init__(self, server: SimulatedServer) -> None:
        self._server = server
        self._zones: dict[str, PowercapZone] = {}

    @property
    def zones(self) -> dict[str, PowercapZone]:
        return dict(self._zones)

    def set_zone(self, app: str, limit_w: float, **zone_kwargs) -> PowercapZone:
        """Create (or replace) the zone around ``app`` and apply its
        starting knob.

        Raises:
            SchedulingError: when the app is not on the server.
        """
        self._server.handle_of(app)  # raises for unknown apps
        width = self._server.topology.group_of(app).width
        zone = PowercapZone(
            app, limit_w, self._server.config, max_width=width, **zone_kwargs
        )
        self._zones[app] = zone
        self._server.knobs.set_knob(app, zone.knob)
        return zone

    def on_tick(self, result: TickResult) -> None:
        """Feed one tick's measurements into every zone's control loop.

        Hardware control loops do not give up: when a knob write fails to
        verify (an actuation fault dropped or tore it), the divergence is
        counted and the zone's setting is re-asserted on every subsequent
        tick until the substrate accepts it.
        """
        for app, zone in self._zones.items():
            power = result.breakdown.app_w.get(app)
            if power is None:
                continue  # suspended or completed: nothing to control
            if self._server.handle_of(app).completed:
                continue
            new_knob = zone.observe(result.time_s, power)
            if new_knob is None and self._server.knobs.readback(app) != zone.knob:
                new_knob = zone.knob  # re-assert a previously failed write
            if new_knob is not None and not self._server.knobs.set_knob(app, new_knob):
                zone.stats.failed_actuations += 1
