"""Power-aware job placement: the paper's future-work item (i).

"This paper has opened doors to further research into ... (i) integration
with cluster/datacenter level scheduling and job allocation mechanisms to
individual servers" - Section VI.

This module implements that integration: a cluster-level scheduler that
decides *which server* an arriving application should join by asking each
candidate server's allocator what the marginal effect on objective (1)
would be - i.e. placement decisions that anticipate the power struggle the
newcomer will cause, instead of only counting free cores.

The score of placing application ``X`` on server ``s`` is::

    score(X, s) = objective_s(apps_s + {X}) - objective_s(apps_s)

where ``objective_s`` is the knapsack optimum under ``s``'s dynamic budget.
A server whose cap is tight (its incumbents already struggle) scores low
even with cores to spare; a server with budget slack scores high. Classic
baselines (first-fit, least-loaded, round-robin) are provided for
comparison; the benchmark shows the power-aware placement winning exactly
when caps are heterogeneous - the regime cluster-level peak shaving
creates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError, SchedulingError
from repro.core.allocator import PowerAllocator
from repro.core.utility import CandidateSet
from repro.server.config import ServerConfig
from repro.server.power_model import PowerModel
from repro.workloads.profiles import WorkloadProfile

#: The placement strategies the benchmark compares.
PLACEMENT_POLICIES = ("power-aware", "first-fit", "least-loaded", "round-robin")

#: Core groups per server (2 on the Table I platform).
CORE_GROUPS = 2


@dataclass
class ServerSlot:
    """The scheduler's view of one server.

    Attributes:
        index: Server id within the cluster.
        p_cap_w: The server's current power cap.
        apps: Profiles currently placed here.
    """

    index: int
    p_cap_w: float
    apps: list[WorkloadProfile] = field(default_factory=list)

    @property
    def free_slots(self) -> int:
        return CORE_GROUPS - len(self.apps)


@dataclass(frozen=True)
class Placement:
    """One placement decision.

    Attributes:
        app: The placed application's name.
        server: Chosen server index, or ``None`` when no server had room.
        score: The scheduler's score for the chosen server (strategy
            -specific; marginal objective for the power-aware strategy).
    """

    app: str
    server: int | None
    score: float


class PowerAwareScheduler:
    """Places applications onto mediated servers, anticipating struggles.

    Args:
        config: Server hardware (all servers are assumed homogeneous; caps
            may differ per server).
        caps_w: Per-server power caps.
        strategy: One of :data:`PLACEMENT_POLICIES`.
    """

    def __init__(
        self,
        config: ServerConfig,
        caps_w: list[float],
        *,
        strategy: str = "power-aware",
    ) -> None:
        if not caps_w:
            raise ConfigurationError("need at least one server")
        if any(c <= 0 for c in caps_w):
            raise ConfigurationError("caps must be positive")
        if strategy not in PLACEMENT_POLICIES:
            raise ConfigurationError(
                f"unknown strategy {strategy!r}; expected one of {PLACEMENT_POLICIES}"
            )
        self._config = config
        self._power_model = PowerModel(config)
        self._allocator = PowerAllocator()
        self._servers = [
            ServerSlot(index=i, p_cap_w=cap)
            for i, cap in enumerate(caps_w)
        ]
        self._strategy = strategy
        self._rr_cursor = 0
        self._cset_cache: dict[str, CandidateSet] = {}

    @property
    def servers(self) -> list[ServerSlot]:
        return self._servers

    @property
    def strategy(self) -> str:
        return self._strategy

    # -------------------------------------------------------------- scoring

    def _candidates_of(self, profile: WorkloadProfile) -> CandidateSet:
        if profile.name not in self._cset_cache:
            self._cset_cache[profile.name] = CandidateSet.from_models(
                profile, self._config, power_model=self._power_model
            )
        return self._cset_cache[profile.name]

    def server_objective(self, slot: ServerSlot) -> float:
        """The knapsack optimum of a server's current tenancy."""
        if not slot.apps:
            return 0.0
        candidates = {p.name: self._candidates_of(p) for p in slot.apps}
        budget = self._config.dynamic_budget_w(slot.p_cap_w)
        if budget <= 0:
            return 0.0
        return self._allocator.allocate(candidates, budget).objective

    def marginal_gain(self, slot: ServerSlot, profile: WorkloadProfile) -> float:
        """Objective gain of adding ``profile`` to ``slot`` - the newcomer's
        achievable performance *minus* what it squeezes out of incumbents."""
        before = self.server_objective(slot)
        candidates = {p.name: self._candidates_of(p) for p in slot.apps}
        candidates[profile.name] = self._candidates_of(profile)
        budget = self._config.dynamic_budget_w(slot.p_cap_w)
        if budget <= 0:
            return 0.0
        after = self._allocator.allocate(candidates, budget).objective
        return after - before

    # ------------------------------------------------------------ placement

    def place(self, profile: WorkloadProfile) -> Placement:
        """Choose a server for ``profile`` and record the placement.

        Raises:
            SchedulingError: when the application (by name) is already
                placed somewhere.
        """
        for slot in self._servers:
            if any(p.name == profile.name for p in slot.apps):
                raise SchedulingError(f"{profile.name!r} is already placed")
        open_slots = [s for s in self._servers if s.free_slots > 0]
        if not open_slots:
            return Placement(app=profile.name, server=None, score=0.0)
        if self._strategy == "power-aware":
            chosen = max(open_slots, key=lambda s: self.marginal_gain(s, profile))
            score = self.marginal_gain(chosen, profile)
        elif self._strategy == "first-fit":
            chosen = open_slots[0]
            score = float(chosen.free_slots)
        elif self._strategy == "least-loaded":
            chosen = min(open_slots, key=lambda s: (len(s.apps), s.index))
            score = float(-len(chosen.apps))
        else:  # round-robin
            ordered = sorted(open_slots, key=lambda s: (s.index - self._rr_cursor) % len(self._servers))
            chosen = ordered[0]
            self._rr_cursor = (chosen.index + 1) % len(self._servers)
            score = 0.0
        chosen.apps.append(profile)
        return Placement(app=profile.name, server=chosen.index, score=score)

    def cluster_objective(self) -> float:
        """Sum of per-server knapsack optima - the quantity placement
        decisions ultimately move."""
        return sum(self.server_objective(slot) for slot in self._servers)
