"""Hierarchy chaos: failure-domain soaks for the budget tree.

This module attacks a whole mediation *tree* - datacenter, PDU, and rack
levels at once. A depth-1 tree (``fanouts=(10,)``) is the flat cluster
control plane, so the same soak is the cluster's partition soak
(``repro cluster --chaos``). Each run composes five seeded stressors:

* lossy, reordering fabrics at every level (loss/duplication/jitter);
* partition windows on the root fabric cutting PDU uplinks (servers, at
  depth 1);
* leaf kills drawn by the shared :func:`~repro.chaos.harness.kill_schedule`
  arithmetic;
* whole failure-domain outages (:class:`~repro.hierarchy.SubtreeOutage`)
  taking a PDU or rack subtree dark, controller and all (none at depth 1,
  which has no subtree below the root);
* interior-controller crashes warm-restarted from deliberately stale
  checkpoints (the PR 2 codec convention), exercising the safe-hold path.

The tree replays the schedule with its per-node delegation invariant
checked every tick (the simulator raises on breach), and the soak adds the
hierarchy-specific promises on top:

* **containment** - a dark failure domain must not degrade its sibling
  subtrees: each sibling's time-averaged aggregate cap during the outage
  window must stay within tolerance of a twin run that suffered everything
  *except* the domain outages and crashes (siblings may only gain, minus
  seeded network wobble: divergent loss draws on the shared root fabric can
  briefly park a sibling at its safe tier in one run and not the other, so
  the tolerance is sized above that noise floor);
* **floor** - servers inside the dark domain keep their unconditional
  safe caps: degraded, never dark;
* **hygiene** - after a clean drain, no zombie leases anywhere in the tree.

Violations raise :class:`~repro.errors.ChaosError` naming the seed, so any
failing schedule reproduces from its number alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chaos.harness import kill_schedule
from repro.cluster.cluster import NodeOutage, validate_outages
from repro.errors import ChaosError, ConfigurationError, SimulationError
from repro.hierarchy import (
    BudgetTreeSimulator,
    SubtreeOutage,
    TreeSpec,
    format_path,
    validate_subtree_outages,
)
from repro.hierarchy.tree import Path
from repro.netsim import NetConfig, PartitionWindow
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import NULL_TRACE_BUS, TraceBus

__all__ = [
    "HierarchyChaosResult",
    "HierarchySoakResult",
    "kill_outages",
    "partition_schedule",
    "run_hierarchy_chaos",
    "run_hierarchy_soak",
    "subtree_outage_schedule",
]

_EPS = 1e-6

#: Interior controllers checkpoint every this many steps; a restart
#: restores the previous checkpoint, so it replays stale state.
_CHECKPOINT_EVERY = 10

#: Clean steps after the schedule before the zombie-lease check.
_DRAIN_STEPS = 40

#: How far below its twin a sibling of a dark domain may average.
_CONTAINMENT_TOLERANCE = 0.25

#: Failure-domain (PDU/rack) outage windows one chaos run schedules.
DOMAIN_OUTAGES = 2

#: Interior-controller crashes one chaos run schedules.
CONTROLLER_KILLS = 1


def partition_schedule(
    n_steps: int,
    n_nodes: int,
    *,
    windows: int,
    max_fraction: float,
    seed: int,
) -> tuple[PartitionWindow, ...]:
    """Draw up to ``windows`` partition cuts, each lasting at most
    ``max_fraction`` of the schedule. A node can sit in several windows,
    so its total time cut off is not bounded by ``max_fraction``.

    Each window cuts a random non-empty subset of at most half the fleet -
    a majority of nodes always stays connected, matching the hub-and-spoke
    topology's realistic failure unit (a rack uplink, not the whole fabric).
    """
    if not 0.0 <= max_fraction <= 1.0:
        raise ConfigurationError("max_fraction must be in [0, 1]")
    if windows <= 0 or n_steps < 4 or max_fraction == 0.0:
        return ()
    rng = np.random.default_rng(seed)
    longest = max(1, int(max_fraction * n_steps))
    cuts = []
    for _ in range(windows):
        length = int(rng.integers(1, longest + 1))
        start = int(rng.integers(0, max(1, n_steps - length)))
        width = int(rng.integers(1, max(2, n_nodes // 2 + 1)))
        nodes = tuple(
            int(n) for n in rng.choice(n_nodes, size=min(width, n_nodes), replace=False)
        )
        cuts.append(
            PartitionWindow(start_step=start, end_step=start + length, nodes=nodes)
        )
    return tuple(cuts)


def kill_outages(
    n_steps: int,
    n_nodes: int,
    *,
    kills: int,
    max_down_steps: int,
    seed: int,
) -> tuple[NodeOutage, ...]:
    """Convert a :func:`kill_schedule` draw into node-outage windows.

    Each kill tick takes one random node down for a random (bounded)
    duration. Same-node overlaps are skipped rather than merged, so the
    result always satisfies :func:`~repro.cluster.cluster.validate_outages`.
    """
    ticks = kill_schedule(n_steps, kills, seed)
    if not ticks:
        return ()
    rng = np.random.default_rng(seed + 1)  # node/duration draws, kill ticks above
    busy_until: dict[int, int] = {}
    outages = []
    for tick in ticks:
        node = int(rng.integers(0, n_nodes))
        duration = int(rng.integers(1, max_down_steps + 1))
        if tick < busy_until.get(node, 0):
            continue
        end = min(tick + duration, n_steps)
        if end <= tick:
            continue
        outages.append(NodeOutage(server=node, start_step=tick, end_step=end))
        busy_until[node] = end
    return validate_outages(
        tuple(outages), n_steps=n_steps, n_servers=n_nodes
    )


def subtree_outage_schedule(
    n_steps: int,
    interior: list[Path],
    *,
    outages: int,
    max_down_steps: int,
    seed: int,
) -> tuple[SubtreeOutage, ...]:
    """Draw up to ``outages`` failure-domain windows over ``interior`` paths.

    Windows that would overlap an already-drawn window on the same node or
    on an ancestor/descendant are skipped rather than merged, so the result
    always satisfies :func:`~repro.hierarchy.validate_subtree_outages`.
    """
    if outages <= 0 or not interior or n_steps < 4:
        return ()
    rng = np.random.default_rng(seed)
    drawn: list[SubtreeOutage] = []
    for _ in range(outages):
        path = interior[int(rng.integers(0, len(interior)))]
        duration = int(rng.integers(2, max(3, max_down_steps + 1)))
        start = int(rng.integers(0, max(1, n_steps - duration)))
        end = min(n_steps, start + duration)
        nested = any(
            (o.path[: len(path)] == path or path[: len(o.path)] == o.path)
            and start < o.end_step
            and o.start_step < end
            for o in drawn
        )
        if nested or end <= start:
            continue
        drawn.append(SubtreeOutage(path=path, start_step=start, end_step=end))
    return tuple(sorted(drawn, key=lambda o: (o.start_step, o.path)))


@dataclass(frozen=True)
class HierarchyChaosResult:
    """One seeded hierarchy-chaos run (invariants already enforced).

    Attributes:
        seed: The chaos seed every stressor derived from.
        fanouts: Tree shape the run mediated.
        budget_w: Datacenter budget.
        n_leaves: Number of servers at the bottom.
        loss: Message-loss probability every fabric suffered.
        max_total_cap_w: Largest observed leaf-cap sum.
        fallbacks / heals: Subtrees that lost an upstream lease and
            re-acquired one.
        restarts: Interior controllers warm-restarted from stale
            checkpoints.
        domain_outages: Failure-domain windows the schedule inflicted.
        min_sibling_ratio: Worst sibling aggregate-cap ratio (chaos run
            over twin run) observed across all outage windows; 1.0 when
            no outage had siblings to measure.
    """

    seed: int
    fanouts: tuple[int, ...]
    budget_w: float
    n_leaves: int
    loss: float
    max_total_cap_w: float
    fallbacks: int
    heals: int
    restarts: int
    domain_outages: int
    min_sibling_ratio: float

    @property
    def headroom_w(self) -> float:
        return self.budget_w - self.max_total_cap_w


@dataclass(frozen=True)
class HierarchySoakResult:
    """Aggregate of a hierarchy-chaos soak (every run already passed)."""

    runs: tuple[HierarchyChaosResult, ...]

    @property
    def min_headroom_w(self) -> float:
        return min((r.headroom_w for r in self.runs), default=0.0)

    @property
    def min_sibling_ratio(self) -> float:
        return min((r.min_sibling_ratio for r in self.runs), default=1.0)

    @property
    def total_domain_outages(self) -> int:
        return sum(r.domain_outages for r in self.runs)

    @property
    def total_restarts(self) -> int:
        return sum(r.restarts for r in self.runs)

    def report(self) -> dict:
        """JSON-ready containment/breach report (the CI soak artifact)."""
        return {
            "runs": [
                {
                    "seed": r.seed,
                    "fanouts": list(r.fanouts),
                    "n_leaves": r.n_leaves,
                    "loss": r.loss,
                    "breaches": 0,  # a breach aborts the run with ChaosError
                    "headroom_w": r.headroom_w,
                    "min_sibling_ratio": r.min_sibling_ratio,
                    "domain_outages": r.domain_outages,
                    "restarts": r.restarts,
                    "fallbacks": r.fallbacks,
                    "heals": r.heals,
                }
                for r in self.runs
            ],
            "min_headroom_w": self.min_headroom_w,
            "min_sibling_ratio": self.min_sibling_ratio,
            "total_domain_outages": self.total_domain_outages,
            "total_restarts": self.total_restarts,
        }


def _replay(
    sim: BudgetTreeSimulator,
    loads: list[int],
    down_sets: list[frozenset[int]],
    outages: tuple[SubtreeOutage, ...],
    restart_events: dict[int, list[Path]],
    *,
    drain_steps: int,
    metrics: MetricsRegistry | None,
) -> list[tuple[float, ...]]:
    """Step a tree through the schedule plus a clean drain.

    Checkpoints every interior node on a fixed cadence; each restart event
    restores the named controller from the *previous* checkpoint (never the
    current step's), so every restart replays genuinely stale state. The
    tree's network totals then go into ``metrics`` as ``netsim.*``
    counters, beside the control-plane counters the tree wrote there.
    """
    steps = len(loads)
    checkpoints: dict[Path, tuple[int, dict]] = {}
    caps: list[tuple[float, ...]] = []
    for step in range(steps + drain_steps):
        scheduled = step < steps
        if scheduled:
            for path in restart_events.get(step, ()):
                dark = any(
                    o.start_step <= step < o.end_step
                    and path[: len(o.path)] == o.path
                    for o in outages
                )
                if dark:
                    continue  # a dark domain has nothing running to restart
                held = checkpoints.get(path)
                if held is None:
                    continue
                taken_at, state = held
                sim.restore(
                    path, state, step, checkpoint_age_steps=step - taken_at
                )
            if step % _CHECKPOINT_EVERY == 0:
                for path in sim.nodes:
                    checkpoints[path] = (step, sim.checkpoint(path))
        loaded = frozenset(range(loads[step] if scheduled else loads[-1]))
        row = sim.step(
            step,
            loaded,
            leaf_down=down_sets[step] if scheduled else frozenset(),
            outages=outages if scheduled else (),
        )
        if scheduled:
            caps.append(row)
    if metrics is not None:
        for key, value in sim.net_stats().items():
            metrics.counter(f"netsim.{key}").inc(value)
    return caps


def _window_mean(
    caps: list[tuple[float, ...]], leaves: range, start: int, end: int
) -> float:
    rows = caps[start:end]
    if not rows:
        return 0.0
    return sum(sum(row[i] for i in leaves) for row in rows) / len(rows)


def run_hierarchy_chaos(
    *,
    seed: int,
    fanouts: tuple[int, ...] = (3, 4),
    n_steps: int = 120,
    budget_w: float | None = None,
    loss: float = 0.3,
    trace_bus: TraceBus = NULL_TRACE_BUS,
    metrics: MetricsRegistry | None = None,
) -> HierarchyChaosResult:
    """One composed chaos run against a full mediation tree.

    Every stressor - load walk, root partitions, leaf kills, domain
    outages, controller crash ticks, and all network draws - derives from
    ``seed``; there are up to two root-fabric partition windows, each at
    most a quarter of the schedule long, up to two leaf kills, up to
    :data:`DOMAIN_OUTAGES` domain outages and :data:`CONTROLLER_KILLS`
    controller crash. The run
    replays twice: once with everything, once without the domain outages
    and controller crashes (the containment twin). Fabrics are lossy for
    the scheduled portion and clean during the drain, so the hygiene
    checks are deterministic.

    Raises:
        ChaosError: if the delegation invariant breaks at any node on any
            tick, a dark domain's servers lose their safe-cap floor, a
            sibling subtree averages more than 25% below its twin, or the
            drained tree still holds zombie leases.
    """
    if not 0.0 <= loss < 1.0:
        raise ConfigurationError(f"loss must be in [0, 1), got {loss}")
    spec = TreeSpec(
        fanouts=fanouts,
        budget_w=(
            100.0 * int(np.prod(fanouts)) if budget_w is None else budget_w
        ),
    )
    rng = np.random.default_rng(seed)
    loads = []
    k = int(rng.integers(spec.n_leaves // 2, spec.n_leaves + 1))
    for _ in range(n_steps):
        k = int(np.clip(k + int(rng.integers(-2, 3)), 0, spec.n_leaves))
        loads.append(k)
    partitions = partition_schedule(
        n_steps,
        fanouts[0],
        windows=2,
        max_fraction=0.25,
        seed=seed + 101,
    )
    node_outages = kill_outages(
        n_steps,
        spec.n_leaves,
        kills=2,
        max_down_steps=max(2, n_steps // 8),
        seed=seed + 202,
    )
    down_sets = [
        frozenset(o.server for o in node_outages if o.down_at(t))
        for t in range(n_steps)
    ]
    net = NetConfig(
        latency_steps=0,
        jitter_steps=2,
        loss=loss,
        duplicate=min(1.0, loss / 2),
        partitions=partitions,
        lossy_until_step=n_steps,
        seed=seed,
    )

    def build() -> BudgetTreeSimulator:
        return BudgetTreeSimulator(spec, net=net, trace_bus=trace_bus, metrics=metrics)

    sim = build()
    interior = [p for p in sim.topology.interior_paths() if p]
    outages = validate_subtree_outages(
        subtree_outage_schedule(
            n_steps,
            interior,
            outages=DOMAIN_OUTAGES,
            max_down_steps=max(3, n_steps // 6),
            seed=seed + 303,
        ),
        sim.topology,
        n_steps=n_steps,
    )
    crash_rng = np.random.default_rng(seed + 404)
    restart_events: dict[int, list[Path]] = {}
    targets = list(sim.topology.interior_paths())
    for tick in kill_schedule(n_steps, CONTROLLER_KILLS, seed + 404):
        path = targets[int(crash_rng.integers(0, len(targets)))]
        restart_events.setdefault(tick, []).append(path)

    try:
        caps = _replay(
            sim,
            loads,
            down_sets,
            outages,
            restart_events,
            drain_steps=_DRAIN_STEPS,
            metrics=metrics,
        )
    except SimulationError as exc:
        raise ChaosError(f"hierarchy chaos seed {seed}: {exc}") from None
    final_step = n_steps + _DRAIN_STEPS - 1
    if not sim.zombie_free(final_step):
        raise ChaosError(
            f"hierarchy chaos seed {seed}: a subtree still enforces a lease "
            f"its parent no longer accounts for after the drain"
        )
    leaf_safe = min(
        sim.topology.safe_caps_w[p] for p in sim.topology.leaf_paths()
    )
    for outage in outages:
        leaves = sim.topology.leaves_under(outage.path)
        for step in range(outage.start_step, outage.end_step):
            floor = min(caps[step][i] for i in leaves)
            if floor < leaf_safe - _EPS:
                raise ChaosError(
                    f"hierarchy chaos seed {seed}: server inside dark "
                    f"domain {format_path(outage.path)} fell to "
                    f"{floor:.3f} W below its {leaf_safe:.3f} W safe cap "
                    f"at step {step}"
                )

    # Containment twin: same everything, minus domain outages and crashes.
    min_ratio = 1.0
    if outages:
        twin = build()
        try:
            twin_caps = _replay(
                twin,
                loads,
                down_sets,
                (),
                {},
                drain_steps=0,
                metrics=metrics,
            )
        except SimulationError as exc:
            raise ChaosError(
                f"hierarchy chaos seed {seed}: containment twin failed: {exc}"
            ) from None
        for outage in outages:
            parent = outage.path[:-1]
            for sibling in sim.topology.children(parent):
                if sibling == outage.path or not sim.topology.is_interior(
                    sibling
                ):
                    continue
                leaves = sim.topology.leaves_under(sibling)
                chaos_mean = _window_mean(
                    caps, leaves, outage.start_step, outage.end_step
                )
                twin_mean = _window_mean(
                    twin_caps, leaves, outage.start_step, outage.end_step
                )
                if twin_mean <= _EPS:
                    continue
                ratio = chaos_mean / twin_mean
                min_ratio = min(min_ratio, ratio)
                if ratio < 1.0 - _CONTAINMENT_TOLERANCE:
                    raise ChaosError(
                        f"hierarchy chaos seed {seed}: containment breach - "
                        f"sibling {format_path(sibling)} averaged "
                        f"{chaos_mean:.1f} W during the "
                        f"{format_path(outage.path)} outage vs "
                        f"{twin_mean:.1f} W undisturbed "
                        f"({ratio:.3f} < {1.0 - _CONTAINMENT_TOLERANCE:.3f})"
                    )

    return HierarchyChaosResult(
        seed=seed,
        fanouts=fanouts,
        budget_w=spec.budget_w,
        n_leaves=spec.n_leaves,
        loss=loss,
        max_total_cap_w=sim.max_total_cap_w,
        fallbacks=sim.fallbacks,
        heals=sim.heals,
        restarts=sim.restarts,
        domain_outages=len(outages),
        min_sibling_ratio=min_ratio,
    )


def run_hierarchy_soak(
    *,
    seeds: list[int],
    fanouts: tuple[int, ...] = (3, 4),
    n_steps: int = 120,
    budget_w: float | None = None,
    max_loss: float = 0.3,
) -> HierarchySoakResult:
    """Repeat :func:`run_hierarchy_chaos` across a seed matrix, each run
    with its default outages and controller kills.

    Loss severity sweeps deterministically from mild to ``max_loss`` across
    the matrix, so one soak covers the whole severity range rather than
    hammering a single operating point.

    Raises:
        ChaosError: on the first seed violating any invariant.
    """
    if not seeds:
        raise ConfigurationError("soak needs at least one seed")
    runs = []
    for index, seed in enumerate(seeds):
        runs.append(
            run_hierarchy_chaos(
                seed=seed,
                fanouts=fanouts,
                n_steps=n_steps,
                budget_w=budget_w,
                loss=max_loss * (index + 1) / len(seeds),
            )
        )
    return HierarchySoakResult(runs=tuple(runs))
