"""The Fig. 12 cluster experiment: peak shaving over a diurnal trace.

:class:`ClusterSimulator` replays a day against a 10-server cluster under
the three cluster strategies and reports aggregate performance and power
efficiency normalized to uncapped operation.

**Load following.** The demand trace is a *load* signal: the cluster of the
paper's source trace serves connection-intensive traffic whose intensity
swings diurnally. We invert the demand curve into an offered load - how many
servers carry their two-application mix at each instant (the rest idle) -
so that the uncapped cluster draw reproduces the trace. Peak shaving then
caps the cluster exactly where the paper's Fig. 12a does: the cap equals
demand off-peak (non-binding) and plateaus at ``(1 - shave) * peak`` during
peak hours (binding).

**Evaluation.** Within one (offered load, cap) bin every strategy reaches a
steady state, so each distinct bin is evaluated once - the equal-split
strategies by simulating each loaded server's mix under its cap share, the
consolidation baseline analytically - and results are time-weighted by bin
residency. Consolidation walks the trace in order so migration churn is
charged whenever its packing changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.cluster.manager import (
    CLUSTER_POLICY_NAMES,
    evaluate_equal_policy_bin,
)
from repro.cluster.migration import ConsolidationPlanner, ConsolidationWalker
from repro.netsim import NetConfig
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import NULL_TRACE_BUS, TraceBus
from repro.server.config import ServerConfig, DEFAULT_SERVER_CONFIG
from repro.workloads.mixes import Mix, all_mixes
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.traces import ClusterPowerTrace, peak_shaving_caps

#: Draw of a server with no load. The cluster manager parks empty servers in
#: a standby state (suspend-to-RAM class, ~10 W) rather than burning full
#: idle power - standard practice for diurnal fleets since the
#: energy-proportionality literature the paper builds on.
UNLOADED_SERVER_POWER_W = 10.0


@dataclass(frozen=True)
class NodeOutage:
    """One server's failure interval over the demand trace.

    Steps are indices into the trace (half-open: the server is down for
    ``start_step <= t < end_step``). A failed server powers off entirely -
    its applications produce nothing and it draws nothing - and its share
    of the cluster cap is redistributed to the surviving loaded servers
    until the step it recovers.

    Attributes:
        server: Index of the failed server (0-based home-server index).
        start_step: First trace step of the outage.
        end_step: First trace step after recovery.
    """

    server: int
    start_step: int
    end_step: int

    def __post_init__(self) -> None:
        if self.server < 0:
            raise ConfigurationError("outage server index must be non-negative")
        if self.start_step < 0:
            raise ConfigurationError("outage start_step must be non-negative")
        if self.end_step <= self.start_step:
            raise ConfigurationError("outage end_step must exceed start_step")

    def down_at(self, step: int) -> bool:
        return self.start_step <= step < self.end_step


def validate_outages(
    outages: tuple[NodeOutage, ...],
    *,
    n_steps: int,
    n_servers: int,
) -> tuple[NodeOutage, ...]:
    """Normalize an outage schedule against a concrete trace and fleet.

    Three rules, matching how the rest of the schedule machinery behaves:

    * An outage naming a server that does not exist in the topology raises
      :class:`~repro.errors.ConfigurationError` naming the id - a typo'd
      schedule silently doing nothing is how fault drills get skipped.
      Outages starting at or past the end of the trace are still dropped
      (schedules can be shared across trace lengths).
    * An outage extending past the trace is clamped to the trace end - the
      extra steps can never be observed, so they are not an error.
    * Two outages for the *same* server whose intervals overlap are
      contradictory (is the server down once or twice?) and raise
      :class:`~repro.errors.ConfigurationError`, naming the offending
      field ``outages[i].start_step`` the way the persistence schema
      validators name theirs.
    """
    if n_steps <= 0:
        raise ConfigurationError("outage validation needs a non-empty trace")
    kept: list[NodeOutage] = []
    seen: dict[int, list[tuple[int, int, int]]] = {}
    for index, outage in enumerate(outages):
        if outage.server >= n_servers:
            raise ConfigurationError(
                f"outages[{index}].server: server {outage.server} does not "
                f"exist in a {n_servers}-server fleet"
            )
        if outage.start_step >= n_steps:
            continue
        end_step = min(outage.end_step, n_steps)
        for start2, end2, index2 in seen.get(outage.server, []):
            if outage.start_step < end2 and start2 < end_step:
                raise ConfigurationError(
                    f"outages[{index}].start_step: overlaps outages[{index2}] "
                    f"for server {outage.server}"
                )
        seen.setdefault(outage.server, []).append(
            (outage.start_step, end_step, index)
        )
        if end_step != outage.end_step:
            outage = NodeOutage(
                server=outage.server,
                start_step=outage.start_step,
                end_step=end_step,
            )
        kept.append(outage)
    return tuple(kept)


def outages_from_fault_plan(plan, *, step_s: float) -> tuple[NodeOutage, ...]:
    """Convert a :class:`~repro.faults.plan.FaultPlan`'s ``node`` specs into
    :class:`NodeOutage` windows.

    One plan file can then describe single-server substrate faults *and*
    cluster-level node kills: the per-server injector skips ``node`` specs,
    this converter skips everything else. Windows are conservative - the
    outage covers every trace step the fault window touches (floor start,
    ceil end).
    """
    if step_s <= 0:
        raise ConfigurationError("step_s must be positive")
    outages = []
    for spec in plan.specs:
        if spec.kind != "node":
            continue
        start_step = int(np.floor(spec.start_s / step_s))
        end_step = max(start_step + 1, int(np.ceil(spec.end_s / step_s)))
        outages.append(
            NodeOutage(
                server=int(spec.target),
                start_step=start_step,
                end_step=end_step,
            )
        )
    return tuple(outages)


@dataclass(frozen=True)
class ClusterPolicyResult:
    """Trace-aggregate outcome for one strategy at one shaving level.

    Attributes:
        policy: Strategy name.
        shave_fraction: Peak-shaving level (0.15 / 0.30 / 0.45).
        aggregate_performance: Time-weighted aggregate performance over the
            uncapped aggregate (the Fig. 12b y-axis).
        mean_power_w: Time-weighted mean cluster draw.
        power_efficiency: Normalized performance per normalized *consumed*
            watt (1.0 = the uncapped cluster).
        budget_efficiency: Normalized performance per normalized *available*
            watt - the budget the cap grants, whether or not a strategy can
            use it. This is the paper's "higher performance per available
            watt" metric: consolidation strands budget through rated-power
            quantization, capping strategies do not. The paper's +4%/+12%
            efficiency claims compare these values.
        migrations: Total placement changes (consolidation only).
        lost_node_steps: Sum over trace steps of the number of failed
            servers (node-steps of lost capacity under the run's
            :class:`NodeOutage` schedule; 0 in a fault-free run).
    """

    policy: str
    shave_fraction: float
    aggregate_performance: float
    mean_power_w: float
    power_efficiency: float
    budget_efficiency: float
    migrations: int = 0
    lost_node_steps: int = 0


@dataclass(frozen=True)
class ClusterExperiment:
    """All strategies at all shaving levels, plus the cap traces (Fig. 12a).

    Attributes:
        results: ``{shave_fraction: {policy: result}}``.
        cap_traces: ``{shave_fraction: ClusterPowerTrace}`` - the Fig. 12a
            series.
    """

    results: dict[float, dict[str, ClusterPolicyResult]]
    cap_traces: dict[float, ClusterPowerTrace]


class ClusterSimulator:
    """Ten servers, three strategies, a diurnal trace (Fig. 12).

    Args:
        config: Per-server hardware (Table I defaults).
        mixes: One mix per server; defaults to Table II mixes 1-10. Offered
            load ``k`` activates the first ``k`` mixes.
        cap_grid_w: Quantization grid for the cluster cap when binning the
            trace (coarser = faster; 20 W is 2 W per server).
        engine: Server model implementation (``"scalar"``/``"vector"``)
            forwarded to every per-bin server simulation; bit-identical
            results either way, so it only changes sweep wall-clock.
    """

    def __init__(
        self,
        config: ServerConfig = DEFAULT_SERVER_CONFIG,
        *,
        mixes: list[Mix] | None = None,
        cap_grid_w: float = 20.0,
        engine: str = "scalar",
    ) -> None:
        from repro.engine import validate_engine

        if cap_grid_w <= 0:
            raise ConfigurationError("cap_grid_w must be positive")
        self._engine = validate_engine(engine)
        self._config = config
        self._mixes = mixes if mixes is not None else all_mixes()[:10]
        if not self._mixes:
            raise ConfigurationError("need at least one mix")
        self._cap_grid_w = cap_grid_w
        self._planner = ConsolidationPlanner(config)
        self._equal_cache: dict[tuple[int, str, float], tuple[float, float]] = {}
        self._loaded_power_cache: dict[int, float] = {}
        self._trace: TraceBus = NULL_TRACE_BUS
        self._metrics = MetricsRegistry()

    @property
    def n_servers(self) -> int:
        return len(self._mixes)

    def loaded_server_power_w(self, index: int) -> float:
        """Uncapped draw of server ``index`` carrying its mix."""
        if index not in self._loaded_power_cache:
            power, _ = self._planner.server_load(list(self._mixes[index].profiles()))
            self._loaded_power_cache[index] = power
        return self._loaded_power_cache[index]

    def uncapped_cluster_power_w(self) -> float:
        """Cluster draw with every server loaded and uncapped (trace peak)."""
        return sum(self.loaded_server_power_w(i) for i in range(self.n_servers))

    def apps_for_load(self, k: int) -> list[WorkloadProfile]:
        """The applications offered when ``k`` servers are loaded, with
        names suffixed by home-server index (packing must tell them apart)."""
        result: list[WorkloadProfile] = []
        for idx in range(k):
            for profile in self._mixes[idx].profiles():
                result.append(
                    WorkloadProfile.from_dict(
                        {**profile.to_dict(), "name": f"{profile.name}@{idx}"}
                    )
                )
        return result

    def offered_load(self, demand_w: float) -> int:
        """Invert the demand curve into loaded-server count ``k``.

        Uncapped draw with ``k`` loaded servers is
        ``sum_{i<k} loaded_i + (n - k) * standby``; the inversion picks
        the ``k`` whose draw is closest to the demand sample.
        """
        best_k, best_err = 0, float("inf")
        for k in range(0, self.n_servers + 1):
            draw = sum(self.loaded_server_power_w(i) for i in range(k))
            draw += (self.n_servers - k) * UNLOADED_SERVER_POWER_W
            err = abs(draw - demand_w)
            if err < best_err:
                best_k, best_err = k, err
        return best_k

    # ------------------------------------------------------------------ run

    def run(
        self,
        *,
        shave_fractions: tuple[float, ...] = (0.15, 0.30, 0.45),
        trace: ClusterPowerTrace | None = None,
        duration_s: float = 40.0,
        warmup_s: float = 15.0,
        seed: int = 0,
        outages: tuple[NodeOutage, ...] = (),
        trace_bus: TraceBus | None = None,
        metrics: MetricsRegistry | None = None,
        netsim: NetConfig | None = None,
    ) -> ClusterExperiment:
        """Evaluate every strategy at every shaving level.

        Args:
            shave_fractions: Peak-shaving levels (paper: 15/30/45%).
            trace: Demand trace; defaults to a synthetic diurnal trace whose
                peak equals this cluster's fully loaded draw and whose
                trough matches the published characterization (~55%).
            duration_s / warmup_s: Per-bin steady-state simulation
                parameters for the equal-split strategies.
            seed: Forwarded to the server simulations.
            outages: Node-failure intervals. While a server is down the
                equal-split strategies redistribute its cap share over the
                survivors (``(ceiling - idle) / n_alive`` per server) and
                restore the even split at recovery; consolidation replans
                against the shrunken fleet.
            trace_bus: Optional sink for ``cluster-bin`` (one per fresh bin
                evaluation) and ``cluster-level`` (one per shave level)
                events; the sweep is seed-deterministic, so these hash
                stably like any other sim events.
            metrics: Optional registry receiving the
                ``cluster.bins_evaluated`` / ``cluster.bin_cache_hits``
                counters that quantify how much the memoization saved.
            netsim: When set, the equal-split strategies stop being
                oracles: per-server caps are whatever the lease/epoch
                control plane (:mod:`repro.cluster.controlplane`) actually
                got enforced over this lossy network, with outages
                *inferred* from missed heartbeats rather than read from the
                schedule. Consolidation keeps its oracle placement (its
                migration machinery is a baseline, not the system under
                test). ``None`` (the default) preserves the oracle path
                bit-for-bit.
        """
        self._trace = trace_bus if trace_bus is not None else NULL_TRACE_BUS
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        peak_w = self.uncapped_cluster_power_w()
        if trace is None:
            trace = ClusterPowerTrace.synthetic_diurnal(peak_w=peak_w, seed=seed)
        outages = validate_outages(
            outages, n_steps=len(trace.demand_w), n_servers=self.n_servers
        )
        results: dict[float, dict[str, ClusterPolicyResult]] = {}
        cap_traces: dict[float, ClusterPowerTrace] = {}
        for shave in shave_fractions:
            caps = peak_shaving_caps(trace, shave)
            cap_traces[shave] = caps
            results[shave] = self._run_one_level(
                trace,
                caps,
                shave,
                duration_s=duration_s,
                warmup_s=warmup_s,
                seed=seed,
                outages=outages,
                netsim=netsim,
            )
        return ClusterExperiment(results=results, cap_traces=cap_traces)

    # ------------------------------------------------------------ internals

    def _quantize_per_server(self, cap_w: float) -> float:
        """Snap a per-server cap to the grid, downward (never evaluate
        above the true cap). The configured grid is cluster-wide; the
        per-server grid is its even share."""
        grid = self._cap_grid_w / self.n_servers
        return max(grid, float(np.floor(cap_w / grid)) * grid)

    def _run_one_level(
        self,
        demand: ClusterPowerTrace,
        caps: ClusterPowerTrace,
        shave: float,
        *,
        duration_s: float,
        warmup_s: float,
        seed: int,
        outages: tuple[NodeOutage, ...] = (),
        netsim: NetConfig | None = None,
    ) -> dict[str, ClusterPolicyResult]:
        step_s = demand.step_s
        ceiling_w = (1.0 - shave) * demand.peak_w
        loads = [self.offered_load(d) for d in demand.demand_w]
        # Which servers are down at each trace step (indices past the fleet
        # are ignored rather than rejected: outage schedules can be shared
        # across cluster sizes).
        failed_sets = [
            frozenset(
                o.server for o in outages if o.down_at(t) and o.server < self.n_servers
            )
            for t in range(len(loads))
        ]
        lost_node_steps = sum(len(f) for f in failed_sets)
        # Uncapped draw for each offered load (model-exact, so the
        # normalization and the caps agree with the policies' physics).
        uncapped_draw = {
            k: sum(self.loaded_server_power_w(i) for i in range(k))
            + (self.n_servers - k) * UNLOADED_SERVER_POWER_W
            for k in set(loads)
        }
        # Peak shaving binds only when the load's draw would exceed the
        # ceiling; off-peak the cluster runs uncapped (the Fig. 12a cap
        # series equals demand there merely because capping is inactive).
        # Normalization is always against the *fault-free* uncapped cluster,
        # so node outages show up as lost performance, not a moved baseline.
        binding = [uncapped_draw[k] > ceiling_w + 1e-9 for k in loads]
        uncapped_perf_time = sum(2.0 * k for k in loads) * step_s
        uncapped_power_time = sum(uncapped_draw[k] for k in loads) * step_s
        available_power_time = sum(
            (ceiling_w if binds else uncapped_draw[k])
            for k, binds in zip(loads, binding)
        ) * step_s
        if uncapped_perf_time <= 0:
            raise ConfigurationError("trace offers no load at all")

        out: dict[str, ClusterPolicyResult] = {}
        if netsim is not None:
            # Non-oracle path: per-server caps come from the lease/epoch
            # control plane replayed over the lossy network.
            out.update(
                self._equal_policies_netsim(
                    loads=loads,
                    failed_sets=failed_sets,
                    ceiling_w=ceiling_w,
                    shave=shave,
                    step_s=step_s,
                    netsim=netsim,
                    duration_s=duration_s,
                    warmup_s=warmup_s,
                    seed=seed,
                    uncapped_perf_time=uncapped_perf_time,
                    uncapped_power_time=uncapped_power_time,
                    available_power_time=available_power_time,
                    lost_node_steps=lost_node_steps,
                )
            )
        equal_policies = ("equal-rapl", "equal-ours") if netsim is None else ()
        for policy in equal_policies:
            perf_time = 0.0
            power_time = 0.0
            bin_cache: dict[tuple[int, frozenset[int]], tuple[float, float]] = {}
            for k, failed in zip(loads, failed_sets):
                alive_loaded = [i for i in range(k) if i not in failed]
                alive_unloaded = (self.n_servers - k) - sum(
                    1 for f in failed if f >= k
                )
                idle_w = alive_unloaded * UNLOADED_SERVER_POWER_W
                draw = (
                    sum(self.loaded_server_power_w(i) for i in alive_loaded) + idle_w
                )
                if not alive_loaded:
                    power_time += idle_w * step_s
                    continue
                if draw <= ceiling_w + 1e-9:
                    # Cap non-binding on the (possibly degraded) fleet: the
                    # surviving loaded servers run uncapped.
                    perf_time += 2.0 * len(alive_loaded) * step_s
                    power_time += draw * step_s
                    continue
                key = (k, failed)
                if key not in bin_cache:
                    # The failed servers' cap share is redistributed: the
                    # whole ceiling (minus standby idle) splits evenly over
                    # the survivors, and reverts when the node returns.
                    per_server = self._quantize_per_server(
                        max(0.0, ceiling_w - idle_w) / len(alive_loaded)
                    )
                    evaluation = evaluate_equal_policy_bin(
                        policy,
                        [self._mixes[i] for i in alive_loaded],
                        per_server,
                        config=self._config,
                        cache=self._equal_cache,
                        loaded_powers_w=[
                            self.loaded_server_power_w(i) for i in alive_loaded
                        ],
                        duration_s=duration_s,
                        warmup_s=warmup_s,
                        seed=seed,
                        engine=self._engine,
                    )
                    bin_cache[key] = (
                        evaluation.aggregate_perf,
                        evaluation.cluster_power_w + idle_w,
                    )
                    self._metrics.counter("cluster.bins_evaluated").inc()
                    self._trace.emit(
                        "cluster-bin",
                        {
                            "policy": policy,
                            "shave": shave,
                            "loaded": k,
                            "failed": sorted(failed),
                            "per_server_cap_w": per_server,
                            "aggregate_perf": evaluation.aggregate_perf,
                            "cluster_power_w": evaluation.cluster_power_w + idle_w,
                        },
                    )
                else:
                    self._metrics.counter("cluster.bin_cache_hits").inc()
                perf, power = bin_cache[key]
                perf_time += perf * step_s
                power_time += power * step_s
            out[policy] = ClusterPolicyResult(
                policy=policy,
                shave_fraction=shave,
                aggregate_performance=perf_time / uncapped_perf_time,
                mean_power_w=power_time / (len(loads) * step_s),
                power_efficiency=_efficiency(
                    perf_time / uncapped_perf_time, power_time / uncapped_power_time
                ),
                budget_efficiency=_efficiency(
                    perf_time / uncapped_perf_time,
                    available_power_time / uncapped_power_time,
                ),
                lost_node_steps=lost_node_steps,
            )

        walker = ConsolidationWalker(self._planner, self.n_servers)
        perf_time = 0.0
        power_time = 0.0
        rated_cluster_w = self._config.uncapped_power_w * self.n_servers
        apps_cache = {k: self.apps_for_load(k) for k in set(loads)}
        for k, binds, failed in zip(loads, binding, failed_sets):
            cap_w = ceiling_w if binds else rated_cluster_w
            perf, power = walker.step(
                apps_cache[k],
                cap_w,
                step_s,
                n_available=self.n_servers - len(failed),
            )
            perf_time += perf * step_s
            power_time += power * step_s
        migrations = walker.total_migrations
        out["consolidation-migration"] = ClusterPolicyResult(
            policy="consolidation-migration",
            shave_fraction=shave,
            aggregate_performance=perf_time / uncapped_perf_time,
            mean_power_w=power_time / (len(loads) * step_s),
            power_efficiency=_efficiency(
                perf_time / uncapped_perf_time, power_time / uncapped_power_time
            ),
            budget_efficiency=_efficiency(
                perf_time / uncapped_perf_time,
                available_power_time / uncapped_power_time,
            ),
            migrations=migrations,
            lost_node_steps=lost_node_steps,
        )
        assert set(out) == set(CLUSTER_POLICY_NAMES)
        self._trace.emit(
            "cluster-level",
            {
                "shave": shave,
                "migrations": migrations,
                "lost_node_steps": lost_node_steps,
                "policies": {
                    name: {
                        "aggregate_performance": result.aggregate_performance,
                        "power_efficiency": result.power_efficiency,
                        "budget_efficiency": result.budget_efficiency,
                    }
                    for name, result in sorted(out.items())
                },
            },
        )
        return out

    def _equal_policies_netsim(
        self,
        *,
        loads: list[int],
        failed_sets: list[frozenset[int]],
        ceiling_w: float,
        shave: float,
        step_s: float,
        netsim: NetConfig,
        duration_s: float,
        warmup_s: float,
        seed: int,
        uncapped_perf_time: float,
        uncapped_power_time: float,
        available_power_time: float,
        lost_node_steps: int,
    ) -> dict[str, ClusterPolicyResult]:
        """Equal-split strategies under the distributed control plane.

        One control-plane replay per shaving level - a depth-1 budget tree,
        one controller over every server - produces the per-step
        per-server cap schedule (both equal strategies enforce the *same*
        caps - they differ in what each server does under its cap, not in
        how watts move between servers). Each loaded surviving server is
        then evaluated under the cap it actually held, reusing the shared
        per-(mix, policy, cap) bin cache; grants are grid-quantized, so the
        distinct cap set stays small.

        Two honest costs versus the oracle path appear here by design:
        unloaded and dead nodes keep their unconditional safe caps reserved
        (those watts are stranded, not redistributed), and caps bind
        whenever the *granted* share is below a server's draw - even at
        steps where the oracle would have been non-binding cluster-wide.
        """
        from repro.hierarchy import TreeSpec, run_budget_tree

        outcome = run_budget_tree(
            TreeSpec(
                fanouts=(self.n_servers,),
                budget_w=ceiling_w,
                quantum_w=self._cap_grid_w / self.n_servers,
            ),
            loads,
            net=netsim,
            leaf_down_sets=failed_sets,
            rated_leaf_cap_w=self._config.uncapped_power_w,
            trace_bus=self._trace,
            metrics=self._metrics,
        )
        self._trace.emit(
            "cluster-controlplane",
            {
                "shave": shave,
                "budget_w": outcome.budget_w,
                "safe_cap_w": outcome.safe_caps_by_level_w[0],
                "max_total_cap_w": outcome.max_total_cap_w,
                "final_epoch": outcome.final_epochs["root"],
                "net": outcome.net_stats,
            },
        )
        out: dict[str, ClusterPolicyResult] = {}
        for policy in ("equal-rapl", "equal-ours"):
            perf_time = 0.0
            power_time = 0.0
            for t, (k, failed) in enumerate(zip(loads, failed_sets)):
                alive_unloaded = (self.n_servers - k) - sum(
                    1 for f in failed if f >= k
                )
                power_time += alive_unloaded * UNLOADED_SERVER_POWER_W * step_s
                for i in range(k):
                    if i in failed:
                        continue
                    evaluation = evaluate_equal_policy_bin(
                        policy,
                        [self._mixes[i]],
                        outcome.caps_w[t][i],
                        config=self._config,
                        cache=self._equal_cache,
                        loaded_powers_w=[self.loaded_server_power_w(i)],
                        duration_s=duration_s,
                        warmup_s=warmup_s,
                        seed=seed,
                        engine=self._engine,
                    )
                    perf_time += evaluation.aggregate_perf * step_s
                    power_time += evaluation.cluster_power_w * step_s
            out[policy] = ClusterPolicyResult(
                policy=policy,
                shave_fraction=shave,
                aggregate_performance=perf_time / uncapped_perf_time,
                mean_power_w=power_time / (len(loads) * step_s),
                power_efficiency=_efficiency(
                    perf_time / uncapped_perf_time,
                    power_time / uncapped_power_time,
                ),
                budget_efficiency=_efficiency(
                    perf_time / uncapped_perf_time,
                    available_power_time / uncapped_power_time,
                ),
                lost_node_steps=lost_node_steps,
            )
        return out


def _efficiency(norm_perf: float, norm_power: float) -> float:
    """Normalized performance per normalized watt (1.0 = uncapped)."""
    if norm_power <= 0:
        return 0.0
    return norm_perf / norm_power
