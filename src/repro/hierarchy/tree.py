"""Budget-tree topology: static safe tiers and failure domains.

A budget tree turns the flat cluster control plane into a datacenter:
the root (datacenter) level leases watts to PDU-level controllers, PDUs
lease to racks, racks to servers - every edge running the *same*
epoch/lease protocol over its own :class:`~repro.netsim.network.SimNetwork`.

The structural decision that makes the fallback waterfall compose is that
the **safe tier is static**: every node's unconditional safe cap is a pure
function of the tree shape, computed here once at build time.

    ``S(root) = B``;  ``S(child) = quantize((1 - g) * S(parent) / fanout)``

A node that hears nothing from its parent - partition, parent crash,
lease expiry - may always distribute its safe cap among its children,
whose own safe caps were carved from exactly that number. Summing the
recurrence level by level gives ``sum of leaf safe caps <= B`` no matter
how many levels are partitioned at once; dynamic extras ride on top as
leases and die with their upstream lease (the bonus clamp in
:class:`~repro.cluster.controlplane.ClusterController`).

Nodes are addressed by **paths**: the root is ``()``, its children
``(0,)``, ``(1,)``, ..., a rack under PDU 2 is ``(2, 0)``. The dotted
string form (``"2.0"``) is the CLI / fault-plan spelling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.controlplane import ControlPlaneConfig
from repro.errors import ConfigurationError, NetworkError

__all__ = [
    "SubtreeOutage",
    "TreeSpec",
    "TreeTopology",
    "format_path",
    "parse_path",
    "subtree_outages_from_fault_plan",
    "validate_subtree_outages",
]

#: Hard ceiling on mediation levels (deeper than rack -> server has no
#: physical analogue and the step cost grows with every level).
MAX_DEPTH = 6

_DEFAULT_LEVEL_NAMES = {
    1: ("datacenter", "server"),
    2: ("datacenter", "pdu", "server"),
    3: ("datacenter", "pdu", "rack", "server"),
}

Path = tuple[int, ...]


def parse_path(text: str) -> Path:
    """Parse the dotted node-path spelling (``"2.0"`` -> ``(2, 0)``).

    Raises:
        ConfigurationError: for an empty or non-numeric path.
    """
    parts = text.split(".") if text else []
    if not parts or not all(p.isdigit() for p in parts):
        raise ConfigurationError(
            f"node path must be dot-separated indices like '2.0', got {text!r}"
        )
    return tuple(int(p) for p in parts)


def format_path(path: Path) -> str:
    """The dotted spelling of ``path`` (root is ``"root"``)."""
    return ".".join(str(p) for p in path) if path else "root"


@dataclass(frozen=True)
class TreeSpec:
    """Shape and budget of one mediation tree.

    Attributes:
        fanouts: Children per node at each interior level, root first -
            ``(4, 5, 10)`` is 4 PDUs x 5 racks x 10 servers = 200 leaves.
            A single entry is the flat cluster: one controller over its
            servers.
        budget_w: The datacenter budget delegated from the root.
        quantum_w: Cap grid used by every level's controller.
        level_names: Display names, one per level including the leaf
            level (``len(fanouts) + 1`` entries): datacenter/pdu/rack/server
            up to depth 3, ``level<i>`` names deeper.
    """

    fanouts: tuple[int, ...]
    budget_w: float
    quantum_w: float = 2.0
    level_names: tuple[str, ...] = field(default=(), init=False)

    def __post_init__(self) -> None:
        if not self.fanouts:
            raise NetworkError("a budget tree needs at least one level")
        if len(self.fanouts) > MAX_DEPTH:
            raise NetworkError(
                f"tree depth {len(self.fanouts)} exceeds the maximum {MAX_DEPTH}"
            )
        if any(f < 1 for f in self.fanouts):
            raise NetworkError("every fanout must be >= 1")
        if self.budget_w <= 0:
            raise NetworkError("tree budget must be positive")
        if self.quantum_w <= 0:
            raise NetworkError("cap quantum must be positive")
        names = _DEFAULT_LEVEL_NAMES.get(
            len(self.fanouts),
            tuple(f"level{i}" for i in range(len(self.fanouts))) + ("server",),
        )
        object.__setattr__(self, "level_names", names)

    @property
    def depth(self) -> int:
        return len(self.fanouts)

    @property
    def n_leaves(self) -> int:
        return math.prod(self.fanouts)


@dataclass(frozen=True)
class TreeTopology:
    """The computed static structure of a :class:`TreeSpec`.

    Everything safety-critical is decided here, once: which paths exist
    and every node's unconditional safe cap. The runner and the chaos
    harness consult the topology; they never re-derive shares.
    """

    spec: TreeSpec
    config: ControlPlaneConfig
    #: Every node path -> its static safe cap (the root maps to the budget).
    safe_caps_w: dict[Path, float] = field(init=False)

    def __post_init__(self) -> None:
        quantum = self.spec.quantum_w
        guard = self.config.safe_guard_band

        def quantize(value: float) -> float:
            return max(0.0, float(np.floor(value / quantum)) * quantum)

        caps: dict[Path, float] = {(): self.spec.budget_w}
        frontier: list[Path] = [()]
        for level, fanout in enumerate(self.spec.fanouts):
            next_frontier: list[Path] = []
            for path in frontier:
                child_cap = quantize((1.0 - guard) * caps[path] / fanout)
                if child_cap <= 0:
                    raise NetworkError(
                        f"budget {self.spec.budget_w} W leaves no safe cap at "
                        f"{self.spec.level_names[level + 1]} level "
                        f"(node {format_path(path)} share quantizes to 0 "
                        f"at quantum {quantum} W)"
                    )
                for i in range(fanout):
                    child = path + (i,)
                    caps[child] = child_cap
                    next_frontier.append(child)
            frontier = next_frontier
        object.__setattr__(self, "safe_caps_w", caps)

    # --------------------------------------------------------------- queries

    @property
    def depth(self) -> int:
        return self.spec.depth

    @property
    def n_leaves(self) -> int:
        return self.spec.n_leaves

    def fanout_at(self, path: Path) -> int:
        """Children of the node at ``path`` (0 for leaves)."""
        if len(path) >= self.depth:
            return 0
        return self.spec.fanouts[len(path)]

    def exists(self, path: Path) -> bool:
        return path in self.safe_caps_w

    def is_interior(self, path: Path) -> bool:
        """Whether ``path`` runs a controller (root included)."""
        return self.exists(path) and len(path) < self.depth

    def interior_paths(self) -> list[Path]:
        """Every controller-bearing path, BFS order, root first."""
        return sorted(
            (p for p in self.safe_caps_w if len(p) < self.depth),
            key=lambda p: (len(p), p),
        )

    def children(self, path: Path) -> list[Path]:
        return [path + (i,) for i in range(self.fanout_at(path))]

    def leaf_paths(self) -> list[Path]:
        return sorted(p for p in self.safe_caps_w if len(p) == self.depth)

    def leaf_index(self, path: Path) -> int:
        """Flat leaf id (row-major over the fanouts) of a leaf path.

        Raises:
            ConfigurationError: for any path that is not a leaf of this
                tree - an out-of-range index would otherwise alias another
                leaf (or, negative, the end of a cap row).
        """
        if len(path) != self.depth or not self.exists(path):
            raise ConfigurationError(
                f"{format_path(path)} is not a leaf path of this tree"
            )
        return self._row_major(path)

    def leaves_under(self, path: Path) -> range:
        """Flat leaf ids inside the subtree rooted at ``path``."""
        if not self.exists(path):
            raise ConfigurationError(
                f"node {format_path(path)} does not exist in this tree"
            )
        stride = math.prod(self.spec.fanouts[len(path) :])
        start = self._row_major(path) * stride
        return range(start, start + stride)

    def _row_major(self, path: Path) -> int:
        """Index of ``path`` among the nodes of its level, row-major."""
        index = 0
        for part, fanout in zip(path, self.spec.fanouts):
            index = index * fanout + part
        return index


# -------------------------------------------------------- failure domains


@dataclass(frozen=True)
class SubtreeOutage:
    """A whole failure domain (PDU, rack) dark for a step window.

    Every node in the subtree - the interior controller, its agents, and
    all leaves below - is down for ``[start_step, end_step)``. The parent
    sees silence, suspects, and reclaims leases as they provably expire;
    sibling subtrees keep mediating (that containment is what the chaos
    suite asserts).
    """

    path: Path
    start_step: int
    end_step: int

    def __post_init__(self) -> None:
        if not self.path:
            raise ConfigurationError(
                "a subtree outage cannot target the root "
                "(that is a datacenter blackout, not a failure domain)"
            )
        if self.start_step < 0 or self.end_step <= self.start_step:
            raise ConfigurationError(
                f"subtree outage window [{self.start_step}, {self.end_step}) "
                "must be non-empty and non-negative"
            )


def validate_subtree_outages(
    outages: tuple[SubtreeOutage, ...],
    topology: TreeTopology,
    *,
    n_steps: int,
) -> tuple[SubtreeOutage, ...]:
    """Check a failure-domain schedule against a concrete tree and trace.

    Mirrors :func:`~repro.cluster.cluster.validate_outages`: unknown or
    leaf paths raise a one-line :class:`~repro.errors.ConfigurationError`
    naming the path, windows past the trace are dropped, overhanging
    windows are clamped, and overlapping windows for the same path (or a
    nested ancestor/descendant pair) are contradictory.
    """
    kept: list[SubtreeOutage] = []
    seen: list[tuple[Path, int, int, int]] = []
    for index, outage in enumerate(outages):
        if not topology.exists(outage.path):
            raise ConfigurationError(
                f"outages[{index}].path: node {format_path(outage.path)} "
                "does not exist in this tree"
            )
        if not topology.is_interior(outage.path):
            raise ConfigurationError(
                f"outages[{index}].path: {format_path(outage.path)} is a "
                "leaf; use a node outage for single servers"
            )
        if outage.start_step >= n_steps:
            continue
        end_step = min(outage.end_step, n_steps)
        for path2, start2, end2, index2 in seen:
            nested = (
                outage.path[: len(path2)] == path2
                or path2[: len(outage.path)] == outage.path
            )
            if nested and outage.start_step < end2 and start2 < end_step:
                raise ConfigurationError(
                    f"outages[{index}].start_step: overlaps outages[{index2}] "
                    f"for subtree {format_path(outage.path)}"
                )
        seen.append((outage.path, outage.start_step, end_step, index))
        if end_step != outage.end_step:
            outage = SubtreeOutage(
                path=outage.path,
                start_step=outage.start_step,
                end_step=end_step,
            )
        kept.append(outage)
    return tuple(kept)


def subtree_outages_from_fault_plan(
    plan, *, step_s: float, topology: TreeTopology
) -> tuple[SubtreeOutage, ...]:
    """Convert a fault plan's ``pdu``/``rack`` specs into subtree outages.

    The companion of :func:`~repro.cluster.cluster.outages_from_fault_plan`:
    that converter takes the ``node`` specs, this one takes the
    failure-domain specs, and the per-server injector skips all three. A
    ``pdu`` spec must name a depth-1 node; a ``rack`` spec a node at the
    deepest interior level. Unknown paths are rejected naming the path -
    the same contract the node-outage validator enforces for server ids.
    """
    if step_s <= 0:
        raise ConfigurationError("step_s must be positive")
    depth_for = {"pdu": 1, "rack": topology.depth - 1}
    outages = []
    for spec in plan.specs:
        if spec.kind not in depth_for:
            continue
        want_depth = depth_for[spec.kind]
        if want_depth < 1:
            raise ConfigurationError(
                f"a {spec.kind} fault needs a tree with interior levels; "
                f"this tree has depth {topology.depth}"
            )
        path = parse_path(spec.target)
        if len(path) != want_depth or not topology.exists(path):
            raise ConfigurationError(
                f"{spec.kind} fault target {spec.target!r} does not name a "
                f"{topology.spec.level_names[want_depth]}-level node in "
                "this tree"
            )
        start = int(np.floor(spec.start_s / step_s))
        end = int(np.ceil((spec.start_s + spec.duration_s) / step_s))
        outages.append(
            SubtreeOutage(path=path, start_step=start, end_step=max(end, start + 1))
        )
    return tuple(outages)
