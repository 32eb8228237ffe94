"""Replay a budget tree over a load/fault schedule, invariant-checked.

:class:`BudgetTreeSimulator` steps every level of the tree in lockstep -
all uplink agents first (deepest after shallowest within a step, ids in
order), then every controller root-first - and proves, at **every interior
node on every step**, that the children's enforced budgets sum to at most
the node's own enforced budget. A violation raises
:class:`~repro.errors.SimulationError`: the hierarchy is budget-safe by
construction, and the check is there to catch protocol bugs, not to paper
over them.

:func:`run_budget_tree` is the batch entry point. A depth-1 tree is the
flat cluster control plane - one controller over its servers - and this is
its only replay: the cluster experiment's lossy-network path and the flat
chaos soak both run one. Golden values recorded from the flat runner it
replaced pin it bit for bit (``tests/hierarchy/test_runner.py``). The
step-at-a-time simulator API exists so the chaos harness can kill interior
controllers mid-run and restore them from stale checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, NamedTuple, Sequence

import numpy as np
from numpy.random import SeedSequence

from repro.cluster.controlplane import ControlPlaneConfig, NodeAgent
from repro.errors import NetworkError, SimulationError
from repro.hierarchy.node import MediationNode, SubtreeAgent
from repro.hierarchy.tree import (
    Path,
    SubtreeOutage,
    TreeSpec,
    TreeTopology,
    format_path,
    validate_subtree_outages,
)
from repro.netsim.network import NetConfig, SimNetwork
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import NULL_TRACE_BUS, TraceBus

__all__ = ["BudgetTreeSimulator", "HierarchyOutcome", "run_budget_tree"]

_EPS = 1e-6


def _derived_seed(base_seed: int, path: Path) -> int:
    """A stable per-network seed: the root keeps ``base_seed`` verbatim
    (so a depth-1 tree draws as the flat plane always has), deeper networks
    mix the path in through a SeedSequence so sibling fabrics are
    decorrelated."""
    if not path:
        return base_seed
    return int(SeedSequence((base_seed,) + tuple(path)).generate_state(1)[0])


class _Shape(NamedTuple):
    """What a step needs to know about one interior node, built once.

    The simulator never replaces a node or a network after building them
    (``restore`` loads state in place), so these references stay valid.
    """

    path: Path
    node: MediationNode
    #: The parent's fabric, which the node's uplink agent talks over;
    #: ``None`` at the root.
    uplink: SimNetwork | None
    #: The interior children in child order; empty when they are leaves.
    child_nodes: tuple[MediationNode, ...]
    #: Flat ids of the leaves below the node, and of each child's leaves.
    leaves: range
    child_leaves: tuple[range, ...]


@dataclass(frozen=True)
class HierarchyOutcome:
    """One budget-tree replay over a load/fault schedule.

    Attributes:
        caps_w: Per step, per leaf: the cap in force at that server.
        budget_w: The datacenter budget the run delegated.
        n_leaves / depth: Tree shape.
        safe_caps_by_level_w: The static unconditional cap at each level
            below the root (uniform within a level by construction).
        max_total_cap_w: Largest observed leaf-cap sum (<= ``budget_w``).
        leaf_epochs: Final accepted epoch per leaf.
        node_epochs: Final accepted epoch per interior (non-root) agent,
            keyed by dotted path.
        final_epochs: Final controller epoch per interior node (root
            included), keyed by dotted path.
        zombie_free: Whether every endpoint's final live extra is covered
            by its parent controller's outstanding accounting.
        fallbacks / heals: Interior subtrees that lost an upstream lease
            (entered autonomous safe-cap mode) and re-acquired one.
        restarts: Interior controllers warm-restarted from checkpoints.
        net_stats: Message accounting summed across every level's network.
    """

    caps_w: tuple[tuple[float, ...], ...]
    budget_w: float
    n_leaves: int
    depth: int
    safe_caps_by_level_w: tuple[float, ...]
    max_total_cap_w: float
    leaf_epochs: tuple[int, ...]
    node_epochs: dict[str, int]
    final_epochs: dict[str, int]
    zombie_free: bool
    fallbacks: int
    heals: int
    restarts: int
    net_stats: dict[str, int]


class BudgetTreeSimulator:
    """A stepping budget tree (the chaos harness's kill/restore surface).

    Args:
        spec: Tree shape and budget.
        net: Network behaviour. Applied at every level; ``net.partitions``
            cut the ROOT fabric (window node ids are level-local), use
            ``partitions`` for deeper fabrics. Non-root levels get seeds
            derived from ``net.seed`` and the node path.
        partitions: Optional extra partition schedules keyed by dotted
            interior path (``{"0": (PartitionWindow(...),)}``).
        rated_leaf_cap_w: Physical per-server clamp (default none).
    """

    def __init__(
        self,
        spec: TreeSpec,
        *,
        net: NetConfig,
        partitions: Mapping[str, tuple] | None = None,
        rated_leaf_cap_w: float | None = None,
        trace_bus: TraceBus = NULL_TRACE_BUS,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self._config = ControlPlaneConfig()
        self.topology = TreeTopology(spec=spec, config=self._config)
        self._trace = trace_bus
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._rated = (
            float("inf") if rated_leaf_cap_w is None else rated_leaf_cap_w
        )
        partitions = dict(partitions or {})
        known = {format_path(p) for p in self.topology.interior_paths()}
        for key in partitions:
            if key not in known or key == "root":
                raise NetworkError(
                    f"partition key {key!r} does not name a non-root "
                    "interior node of this tree"
                )
        flat = self.topology.depth == 1  # degenerate: no scope labels

        self.nodes: dict[Path, MediationNode] = {}
        for path in self.topology.interior_paths():
            level_net = net
            if path:
                level_net = replace(
                    net,
                    partitions=tuple(partitions.get(format_path(path), ())),
                    seed=_derived_seed(net.seed, path),
                )
            self.nodes[path] = MediationNode(
                path,
                self.topology,
                net=level_net,
                config=self._config,
                trace_bus=trace_bus,
                metrics=self._metrics,
                scope="" if flat else format_path(path),
                rated_leaf_cap_w=self._rated,
            )
        # Uplink endpoints: interior agents defer shrinks, leaves are plain.
        for path, node in self.nodes.items():
            if not path:
                continue
            agent = SubtreeAgent(
                path[-1],
                safe_cap_w=self.topology.safe_caps_w[path],
                rated_cap_w=float("inf"),
                config=self._config,
                trace_bus=trace_bus,
                metrics=self._metrics,
                scope="" if flat else format_path(path[:-1]),
            )
            controller = node.controller
            # Adopting (extra', expiry') is safe iff the level's outstanding
            # watts fit the new budget now AND nothing outlives the new
            # horizon beyond the unconditional pool - the two ways a lease
            # can shrink (see the module docstring of hierarchy.node). Both
            # bounds read the controller's outstanding accounting, which
            # UNDER-counts reality while a stale-checkpoint restore is in
            # its safe hold (forgotten grants are still live downstream),
            # so no shrink may be adopted until the hold expires.
            agent.downstream_fits = (
                lambda extra_w, expiry_step, step, _c=controller: (
                    not _c.in_safe_hold(step)
                    and _c.total_outstanding_w(step)
                    <= _c.extras_pool_w + extra_w + _EPS
                    and _c.total_outstanding_w(max(step, expiry_step))
                    <= _c.extras_pool_w + _EPS
                )
            )
            node.agent = agent
        self.leaf_agents: list[NodeAgent] = []
        #: Each leaf's parent fabric, by flat id.
        self._leaf_fabrics: list[SimNetwork] = []
        for leaf in self.topology.leaf_paths():
            self._leaf_fabrics.append(self.nodes[leaf[:-1]].network)
            self.leaf_agents.append(
                NodeAgent(
                    leaf[-1],
                    safe_cap_w=self.topology.safe_caps_w[leaf],
                    rated_cap_w=self._rated,
                    config=self._config,
                    trace_bus=trace_bus,
                    metrics=self._metrics,
                    scope="" if flat else format_path(leaf[:-1]),
                )
            )
        # The tree's shape, indexed once: a step then costs per message and
        # per leaf, never a re-derivation of paths and leaf ids.
        self._shapes: list[_Shape] = []
        for path, node in self.nodes.items():
            children = self.topology.children(path)
            self._shapes.append(
                _Shape(
                    path=path,
                    node=node,
                    uplink=self.nodes[path[:-1]].network if path else None,
                    child_nodes=tuple(
                        self.nodes[c] for c in children if c in self.nodes
                    ),
                    leaves=self.topology.leaves_under(path),
                    child_leaves=tuple(
                        self.topology.leaves_under(c) for c in children
                    ),
                )
            )
        self._had_extra: dict[Path, bool] = {
            path: False for path in self.nodes if path
        }
        self._fell_back: set[Path] = set()
        self.fallbacks = 0
        self.heals = 0
        self.restarts = 0
        self.max_total_cap_w = 0.0
        #: Per-leaf nominal demand carried upward as telemetry.
        self._leaf_demand_w = spec.budget_w / spec.n_leaves

    # ------------------------------------------------------------- plumbing

    def _dark(
        self, step: int, outages: Sequence[SubtreeOutage]
    ) -> tuple[frozenset[int], frozenset[Path]]:
        """Leaf ids and interior paths inside a domain dark at ``step``.

        Raises:
            ConfigurationError: for an active outage path the tree lacks.
        """
        active = [o.path for o in outages if o.start_step <= step < o.end_step]
        if not active:
            return frozenset(), frozenset()
        leaves = frozenset().union(
            *(self.topology.leaves_under(path) for path in active)
        )
        nodes = frozenset(
            shape.path
            for shape in self._shapes
            if any(shape.path[: len(path)] == path for path in active)
        )
        return leaves, nodes

    # ----------------------------------------------------------------- step

    def step(
        self,
        step: int,
        loaded_leaves: frozenset[int],
        *,
        leaf_down: frozenset[int] = frozenset(),
        outages: Sequence[SubtreeOutage] = (),
    ) -> tuple[float, ...]:
        """Advance every level by one step and check the invariant.

        Returns the per-leaf effective caps; raises
        :class:`~repro.errors.SimulationError` when any interior node's
        children collectively out-cap its enforced budget.
        """
        dark_leaves, dark_nodes = self._dark(step, outages)
        # Uplink agents first, shallow to deep, ids in order - within any
        # single fabric the agents step before their controller.
        for shape in self._shapes:
            if shape.uplink is None:
                continue
            agent = shape.node.agent
            agent.demand_w = shape.node.controller.total_reported_demand_w()
            agent.up = shape.path not in dark_nodes
            agent.step(step, shape.uplink)
        demand_w = self._leaf_demand_w
        for flat_id, agent in enumerate(self.leaf_agents):
            agent.demand_w = demand_w if flat_id in loaded_leaves else 0.0
            agent.up = flat_id not in leaf_down and flat_id not in dark_leaves
            agent.step(step, self._leaf_fabrics[flat_id])

        # Controllers root-first, each with its bonus refreshed from the
        # freshly stepped uplink agent.
        for shape in self._shapes:
            loaded_children = frozenset(
                child
                for child, leaves in enumerate(shape.child_leaves)
                if not loaded_leaves.isdisjoint(leaves)
            )
            shape.node.step_controller(
                step, loaded_children, up=shape.path not in dark_nodes
            )

        self._track_fallbacks(step)
        row = tuple(
            agent.effective_cap_w(step) for agent in self.leaf_agents
        )
        self._check_invariant(step, row)
        return row

    def _track_fallbacks(self, step: int) -> None:
        for path, node in self.nodes.items():
            if not path:
                continue
            agent = node.agent
            has_extra = agent is not None and agent.live_extra_w(step) > _EPS
            before = self._had_extra[path]
            if before and not has_extra:
                self.fallbacks += 1
                self._fell_back.add(path)
                self._metrics.counter("hierarchy.fallbacks").inc()
                self._trace.emit(
                    "hier-fallback",
                    {
                        "path": format_path(path),
                        "safe_cap_w": self.topology.safe_caps_w[path],
                        "step": step,
                    },
                )
            elif has_extra and not before:
                # The very first grant is delegation, not a heal: only a
                # node that previously fell back to its safe tier heals.
                if path in self._fell_back:
                    self._fell_back.discard(path)
                    self.heals += 1
                    self._metrics.counter("hierarchy.heals").inc()
                    self._trace.emit(
                        "hier-heal",
                        {"path": format_path(path), "step": step},
                    )
            self._had_extra[path] = has_extra

    def _check_invariant(self, step: int, leaf_row: tuple[float, ...]) -> None:
        for shape in self._shapes:
            node = shape.node
            budget = node.enforced_budget_w(step)
            # Left to right from 0.0 in child order, not with sum(), which
            # compensates float rounding on Python 3.12+.
            total = 0.0
            if shape.child_nodes:
                for child in shape.child_nodes:
                    total += child.enforced_budget_w(step)
            else:
                for cap in leaf_row[shape.leaves.start : shape.leaves.stop]:
                    total += cap
            if total > budget + _EPS * max(1, node.n_children):
                raise SimulationError(
                    f"hierarchy invariant violated at step {step}, node "
                    f"{format_path(shape.path)}: children enforce {total:.6f} W "
                    f"against an enforced budget of {budget:.6f} W"
                )
        root_total = sum(leaf_row)
        self.max_total_cap_w = max(self.max_total_cap_w, root_total)
        if root_total > self.topology.spec.budget_w + _EPS * len(leaf_row):
            raise SimulationError(
                f"hierarchy invariant violated at step {step}: leaf caps "
                f"sum to {root_total:.6f} W against the datacenter budget "
                f"{self.topology.spec.budget_w:.6f} W"
            )

    # ------------------------------------------------------- crash/restore

    def checkpoint(self, path: Path) -> dict:
        """Snapshot one interior node (PR 2 codec convention)."""
        return self.nodes[path].state_dict()

    def restore(
        self, path: Path, state: dict, step: int, *, checkpoint_age_steps: int
    ) -> None:
        """Warm-restart an interior controller from a (possibly stale)
        checkpoint.

        The agent half is journaled synchronously (flat-plane convention:
        a :class:`NodeAgent`'s epoch survives crashes), so only the
        controller is rolled back; it re-enters service in the safe-hold
        posture with its epoch counter bumped past anything the dead
        incarnation could have issued.
        """
        node = self.nodes[path]
        node.controller.load_state_dict(state["controller"])
        node.controller.restart(
            step,
            epochs_to_skip=(checkpoint_age_steps + 1) * node.n_children,
        )
        self.restarts += 1
        self._metrics.counter("hierarchy.restarts").inc()
        self._trace.emit(
            "hier-restart",
            {
                "path": format_path(path),
                "step": step,
                "checkpoint_age_steps": checkpoint_age_steps,
            },
        )

    # -------------------------------------------------------------- summary

    def zombie_free(self, final_step: int) -> bool:
        """No endpoint enforces an extra its parent stopped accounting."""
        for path, node in self.nodes.items():
            for child in self.topology.children(path):
                if child in self.nodes:
                    agent = self.nodes[child].agent
                else:
                    agent = self.leaf_agents[self.topology.leaf_index(child)]
                if agent is None:
                    continue
                if (
                    agent.live_extra_w(final_step)
                    > node.controller.outstanding_w(child[-1], final_step)
                    + _EPS
                ):
                    return False
        return True

    def net_stats(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for node in self.nodes.values():
            for key, value in node.network.stats.to_dict().items():
                totals[key] = totals.get(key, 0) + value
        return totals


def run_budget_tree(
    spec: TreeSpec,
    loaded_counts: Sequence[int],
    *,
    net: NetConfig,
    leaf_down_sets: Sequence[frozenset[int]] | None = None,
    subtree_outages: tuple[SubtreeOutage, ...] = (),
    partitions: Mapping[str, tuple] | None = None,
    rated_leaf_cap_w: float | None = None,
    drain_steps: int = 0,
    trace_bus: TraceBus = NULL_TRACE_BUS,
    metrics: MetricsRegistry | None = None,
) -> HierarchyOutcome:
    """Replay a budget tree over a load/outage schedule.

    Args:
        loaded_counts: Offered load per step; the first ``k`` leaves are
            loaded (the cluster simulator's load inversion).
        leaf_down_sets: Dead leaf servers per step (flat ids, each in
            ``[0, n_leaves)``).
        subtree_outages: Failure-domain (PDU/rack) windows; validated
            against the tree and trace.
        partitions: Extra partition schedules for non-root fabrics, keyed
            by dotted interior path.
        drain_steps: Clean extra steps after the schedule (final load, no
            faults) so leases renew and retries settle; their caps are not
            part of ``caps_w``.

    Raises:
        SimulationError: if the budget invariant is violated at any node
            on any step (a protocol bug by definition).
        NetworkError / ConfigurationError: for malformed schedules.
    """
    steps = len(loaded_counts)
    if steps == 0:
        raise NetworkError("budget-tree schedule needs at least one step")
    if any(not 0 <= k <= spec.n_leaves for k in loaded_counts):
        raise NetworkError("loaded_counts entries must be in [0, n_leaves]")
    if leaf_down_sets is None:
        leaf_down_sets = [frozenset()] * steps
    if len(leaf_down_sets) != steps:
        raise NetworkError(
            f"leaf_down_sets has {len(leaf_down_sets)} entries for "
            f"{steps} steps"
        )
    # A typo'd id would otherwise take no server down and say nothing.
    for step, down in enumerate(leaf_down_sets):
        unknown = [leaf for leaf in down if not 0 <= leaf < spec.n_leaves]
        if unknown:
            raise NetworkError(
                f"leaf_down_sets[{step}] names leaf {min(unknown)}, but the "
                f"tree's leaves are 0..{spec.n_leaves - 1}"
            )
    registry = metrics if metrics is not None else MetricsRegistry()
    sim = BudgetTreeSimulator(
        spec,
        net=net,
        partitions=partitions,
        rated_leaf_cap_w=rated_leaf_cap_w,
        trace_bus=trace_bus,
        metrics=registry,
    )
    outages = validate_subtree_outages(
        subtree_outages, sim.topology, n_steps=steps
    )

    caps: list[tuple[float, ...]] = []
    last_loaded = frozenset(range(loaded_counts[-1]))
    for step in range(steps + drain_steps):
        if step < steps:
            loaded = frozenset(range(loaded_counts[step]))
            down = leaf_down_sets[step]
            active = outages
        else:
            loaded, down, active = last_loaded, frozenset(), ()
        row = sim.step(step, loaded, leaf_down=down, outages=active)
        if step < steps:
            caps.append(row)

    final_step = steps + drain_steps - 1
    for key, value in sim.net_stats().items():
        registry.counter(f"netsim.{key}").inc(value)
    registry.gauge("hierarchy.levels").set(float(spec.depth))
    registry.gauge("hierarchy.leaves").set(float(spec.n_leaves))
    registry.gauge("hierarchy.nodes").set(float(len(sim.nodes)))
    registry.gauge("hierarchy.max_utilization").set(
        sim.max_total_cap_w / spec.budget_w
    )
    safe_by_level = tuple(
        sim.topology.safe_caps_w[(0,) * depth]
        for depth in range(1, spec.depth + 1)
    )
    if sim.topology.depth > 1:
        for depth in range(spec.depth):
            trace_bus.emit(
                "hier-level",
                {
                    "level": spec.level_names[depth],
                    "depth": depth,
                    "n_nodes": int(np.prod(spec.fanouts[:depth])) if depth else 1,
                    "node_budget_w": sim.topology.safe_caps_w[(0,) * depth],
                    "child_safe_cap_w": safe_by_level[depth],
                },
            )
    return HierarchyOutcome(
        caps_w=tuple(caps),
        budget_w=spec.budget_w,
        n_leaves=spec.n_leaves,
        depth=spec.depth,
        safe_caps_by_level_w=safe_by_level,
        max_total_cap_w=sim.max_total_cap_w,
        leaf_epochs=tuple(agent.epoch for agent in sim.leaf_agents),
        node_epochs={
            format_path(p): node.agent.epoch
            for p, node in sim.nodes.items()
            if node.agent is not None
        },
        final_epochs={
            format_path(p): node.controller.epoch
            for p, node in sim.nodes.items()
        },
        zombie_free=sim.zombie_free(final_step),
        fallbacks=sim.fallbacks,
        heals=sim.heals,
        restarts=sim.restarts,
        net_stats=sim.net_stats(),
    )
