"""Consolidation + migration: the no-capping cluster baseline.

"The cluster manager powers only as many servers as possible as allowed by
the cluster level power budget. Hence, a power cap is not imposed on any
active server. The cluster manager migrates applications to these servers
considering direct resource interference. It is more efficient as it incurs
less P_idle + P_cm. However, it may not be feasible in the presence of
large application states or network bottlenecks."

The planner packs applications onto the servers the budget can power at
*rated* draw (uncapped servers can spike to it). Packing honours the
paper's direct-resource isolation premise: one application per socket by
default, so a dual-socket server hosts at most two. Migration costs
downtime: an application moving between servers loses
``migration_downtime_s`` of execution - the churn the paper warns about
when caps change frequently.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.server.config import KnobSetting, ServerConfig
from repro.server.perf_model import PerformanceModel
from repro.server.power_model import PowerModel
from repro.workloads.profiles import WorkloadProfile


@dataclass(frozen=True)
class PackedServer:
    """One powered server in a consolidation plan.

    Attributes:
        apps: Application names placed here (at most 4: two per socket).
        power_w: Uncapped server draw with this placement.
        relative_perf: Per-app ``Perf/Perf_nocap`` at the packed knob.
    """

    apps: tuple[str, ...]
    power_w: float
    relative_perf: dict[str, float]


@dataclass(frozen=True)
class ConsolidationPlan:
    """A full placement for one cap level.

    Attributes:
        servers: The powered servers.
        dropped: Applications that did not fit any powered server.
        total_power_w: Cluster draw (off servers draw nothing).
        aggregate_perf: Sum of per-app relative performance.
    """

    servers: tuple[PackedServer, ...]
    dropped: tuple[str, ...]
    total_power_w: float
    aggregate_perf: float


class ConsolidationPlanner:
    """Packs applications onto the fewest uncapped servers within a budget.

    A server holds at most one application per socket. The paper's premise is
    that co-located applications do not share direct resources; its
    migration "considers direct resource interference", i.e. keeps one
    application per socket (own cores, LLC, DIMM).

    Args:
        config: Server hardware description.
        migration_downtime_s: Execution lost per migrated application when
            the placement changes (stop-and-copy of application state over
            the cluster network).
    """

    def __init__(
        self,
        config: ServerConfig,
        *,
        migration_downtime_s: float = 90.0,
    ) -> None:
        if migration_downtime_s < 0:
            raise ConfigurationError("migration_downtime_s must be non-negative")
        self._config = config
        self._perf = PerformanceModel(config)
        self._power = PowerModel(config, self._perf)
        self.migration_downtime_s = migration_downtime_s

    def server_load(
        self, apps: list[WorkloadProfile]
    ) -> tuple[float, dict[str, float]]:
        """Uncapped draw and per-app relative perf of one packed server.

        Each application gets a socket of its own and runs at full
        frequency and DRAM on that socket's cores.
        """
        cfg = self._config
        if len(apps) > cfg.sockets:
            raise ConfigurationError(
                f"cannot pack {len(apps)} apps onto one server (limit {cfg.sockets})"
            )
        cores = min(max(cfg.cores_min, cfg.cores_per_socket), cfg.cores_max)
        knob = KnobSetting(cfg.freq_max_ghz, cores, cfg.dram_power_max_w)
        total = cfg.p_idle_w + (cfg.p_cm_w if apps else 0.0)
        perfs: dict[str, float] = {}
        for profile in apps:
            total += self._power.app_power_w(profile, knob)
            perfs[profile.name] = self._perf.rate(profile, knob) / self._perf.peak_rate(
                profile
            )
        return total, perfs

    def plan(
        self, apps: list[WorkloadProfile], cluster_cap_w: float, *, n_servers: int
    ) -> ConsolidationPlan:
        """Pack ``apps`` onto the servers the budget can power, uncapped.

        Because no active server is capped, the manager must budget each
        powered server at its *rated* draw - an uncapped server can spike to
        it at any time - so ``n_active = floor(cap / rated)``. Applications
        spread evenly (round-robin) over the powered servers: the manager
        "powers as many servers as possible", preferring shallow packing
        for performance. Applications beyond the powered capacity are
        dropped (they wait, contributing zero performance) - the stranded
        -budget cost of rated-power quantization that the paper's proposal
        avoids by capping instead.
        """
        if cluster_cap_w <= 0:
            raise ConfigurationError("cluster_cap_w must be positive")
        rated = self._config.uncapped_power_w
        n_active = min(n_servers, int(cluster_cap_w // rated))
        if n_active <= 0 or not apps:
            return ConsolidationPlan(
                servers=(),
                dropped=tuple(p.name for p in apps),
                total_power_w=0.0,
                aggregate_perf=0.0,
            )
        capacity = n_active * self._config.sockets
        placed = list(apps[:capacity])
        dropped = tuple(p.name for p in apps[capacity:])
        # Native density is one app per socket; consolidate to that density
        # when the budget allows, deeper only when it does not (fewer
        # powered servers means less P_idle + P_cm - the strategy's whole
        # point).
        native = -(-len(placed) // self._config.sockets)  # ceil division
        n_used = min(n_active, max(1, native))
        servers: list[PackedServer] = []
        for i in range(n_used):
            group = placed[i::n_used]
            power, perfs = self.server_load(group)
            servers.append(
                PackedServer(
                    apps=tuple(p.name for p in group),
                    power_w=power,
                    relative_perf=perfs,
                )
            )
        return ConsolidationPlan(
            servers=tuple(servers),
            dropped=dropped,
            total_power_w=sum(s.power_w for s in servers),
            aggregate_perf=sum(sum(s.relative_perf.values()) for s in servers),
        )

    def migrations_between(
        self, before: "ConsolidationPlan | None", after: ConsolidationPlan
    ) -> int:
        """Count applications whose server index changed between plans."""
        if before is None:
            return 0
        old_home = {
            name: idx for idx, srv in enumerate(before.servers) for name in srv.apps
        }
        new_home = {
            name: idx for idx, srv in enumerate(after.servers) for name in srv.apps
        }
        return sum(
            1
            for name, home in new_home.items()
            if name in old_home and old_home[name] != home
        )


class ConsolidationWalker:
    """Stateful trace replay of the consolidation+migration strategy.

    Migration is not free or instantaneous, and this walker charges the
    operational costs the paper's discussion calls out:

    * **Replan hysteresis** - the manager recomputes placement at most every
      ``replan_interval_s`` (migrating the fleet every trace minute is not
      operable). Between replans, newly offered applications wait.
    * **Boot latency** - powering a server that was off takes
      ``boot_latency_s``; applications placed on it produce nothing until it
      is up.
    * **Emergency shedding** - when the cap falls below the current
      placement's rated budget the manager cannot wait for the next replan:
      it powers servers down immediately, and their applications stall
      until a replan re-places them.
    * **Migration downtime** - each re-placed application loses the
      planner's ``migration_downtime_s``.

    The paper's proposal avoids all four by capping servers in place - this
    walker is what makes that comparison fair.

    Args:
        planner: Packing/migration cost model.
        n_servers: Fleet size.
        replan_interval_s: Minimum time between placement recomputations.
        boot_latency_s: Power-on latency of a server that was off.
    """

    def __init__(
        self,
        planner: ConsolidationPlanner,
        n_servers: int,
        *,
        replan_interval_s: float = 600.0,
        boot_latency_s: float = 180.0,
    ) -> None:
        if n_servers < 1:
            raise ConfigurationError("n_servers must be at least 1")
        if replan_interval_s < 0 or boot_latency_s < 0:
            raise ConfigurationError("intervals must be non-negative")
        self._planner = planner
        self._n_servers = n_servers
        self._replan_interval_s = replan_interval_s
        self._boot_latency_s = boot_latency_s
        self._plan: ConsolidationPlan | None = None
        self._since_replan_s = float("inf")
        self._powered = 0
        self.total_migrations = 0

    def step(
        self,
        apps: list[WorkloadProfile],
        cap_w: float,
        step_s: float,
        *,
        n_available: int | None = None,
    ) -> tuple[float, float]:
        """Advance one trace step; returns ``(aggregate_perf, power_w)``.

        ``aggregate_perf`` is the time-average over the step, including
        migration/boot/shedding losses.

        Args:
            apps: Applications offered this step.
            cap_w: Cluster cap in force.
            step_s: Step duration.
            n_available: Servers currently healthy (node failures shrink
                the fleet). A failure is felt immediately - servers beyond
                the healthy count shed their placement and those apps stall
                - but re-placing the stalled work waits for the replan
                hysteresis, the same operational cost migrations pay.
        """
        if step_s <= 0:
            raise ConfigurationError("step_s must be positive")
        avail = (
            self._n_servers
            if n_available is None
            else max(0, min(n_available, self._n_servers))
        )
        self._since_replan_s += step_s
        offered = {p.name for p in apps}
        rated = self._planner._config.uncapped_power_w  # noqa: SLF001

        replan_due = self._plan is None or self._since_replan_s >= self._replan_interval_s
        if replan_due:
            cold_start = self._plan is None
            new_plan = self._planner.plan(apps, cap_w, n_servers=avail)
            migrations = self._planner.migrations_between(self._plan, new_plan)
            self.total_migrations += migrations
            # Booting applies only when an established fleet grows; at cold
            # start the experiment begins with the placement already up.
            newly_powered = (
                0 if cold_start else max(0, len(new_plan.servers) - self._powered)
            )
            migration_loss_s = min(step_s, self._planner.migration_downtime_s)
            self._plan = new_plan
            self._powered = len(new_plan.servers)
            self._since_replan_s = 0.0
            perf = new_plan.aggregate_perf
            # Charge migration downtime against the migrated apps' share and
            # boot latency against the newly powered servers' share. Loss
            # beyond one step is dropped - optimistic for the baseline.
            if migrations and new_plan.servers:
                per_app = perf / max(1, sum(len(s.apps) for s in new_plan.servers))
                perf -= migrations * per_app * (migration_loss_s / step_s)
            if newly_powered and new_plan.servers:
                boot_loss = min(1.0, self._boot_latency_s / step_s)
                booted = new_plan.servers[-newly_powered:]
                perf -= boot_loss * sum(sum(s.relative_perf.values()) for s in booted)
            return max(0.0, perf), new_plan.total_power_w

        # Between replans: run the standing placement for whatever of it is
        # still offered; emergency-shed servers if the cap fell below the
        # placement's rated budget.
        assert self._plan is not None
        servers = list(self._plan.servers)
        while servers and len(servers) * rated > cap_w + 1e-9:
            servers.pop()  # power down, apps stall until the next replan
        while len(servers) > avail:
            servers.pop()  # node failure: its placement stalls until replan
        perf = sum(
            sum(v for name, v in s.relative_perf.items() if name in offered)
            for s in servers
        )
        power = sum(s.power_w for s in servers)
        self._powered = len(servers)
        return perf, power
