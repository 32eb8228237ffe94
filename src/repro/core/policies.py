"""The paper's evaluated power-management schemes (Sections IV-A and IV-B).

Five policies, in increasing awareness of the nature of power:

* :class:`UtilUnawarePolicy` (baseline-1) - fair, utility-blind: the dynamic
  budget is split equally and each application's share is enforced the way
  hardware RAPL enforces a limit - by walking a fixed throttle path (DVFS
  first, then idle-injection-style core reduction, then DRAM) until the
  app's true draw fits. Under stringent caps it duty-cycles fairly.
* :class:`ServerResAwarePolicy` (baseline-2) - knows how watts convert into
  performance *on this server on average* (resource utilities averaged
  across all applications) but is blind to per-application differences:
  equal split, one generic knob choice applied to everyone.
* :class:`AppAwarePolicy` - knows per-application utility *curves* (from the
  collaborative estimates) and splits the budget unevenly across apps (R1),
  but does not tune the knob mix per app: within an app it follows the same
  hardware throttle path as the baselines.
* :class:`AppResAwarePolicy` - the paper's full spatial proposal: a joint
  choice of per-app budget *and* per-resource knob mix (R1 + R2), solved
  exactly over each app's Pareto frontier.
* :class:`AppResEsdAwarePolicy` - adds Requirement R4: when the cap cannot
  host everyone simultaneously, all applications share consolidated OFF/ON
  phases with the battery per Eq. (5), instead of taking turns.

Every policy produces an :class:`~repro.core.coordinator.AllocationPlan`;
the mediator supplies a :class:`PolicyContext` carrying the oracle response
surfaces (the "hardware" the enforcement acts on), the collaborative
estimates (what aware policies believe), and the population-average surface.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.core.allocator import Allocation, AppAllocation, PowerAllocator
from repro.core.coordinator import AllocationPlan, CoordinationMode, TimeSlot
from repro.core.utility import CandidateSet
from repro.esd.battery import LeadAcidBattery
from repro.esd.controller import compute_duty_cycle
from repro.server.config import KnobSetting, ServerConfig

#: Registry of policy names as used in the paper's figures.
POLICY_NAMES = (
    "util-unaware",
    "server+res-aware",
    "app-aware",
    "app+res-aware",
    "app+res+esd-aware",
)


@dataclass(frozen=True)
class PolicyContext:
    """Everything a policy may look at when planning one epoch.

    Attributes:
        config: The server's knob space and power constants.
        p_cap_w: The cap in force.
        oracle: True response surfaces per app. Policies use these only to
            emulate *hardware enforcement* (hardware reacts to true power,
            whatever the policy believes).
        estimates: Collaborative-filtering estimates per app - what
            utility-aware policies believe. Experiments may pass the oracle
            here to study policies without estimation error.
        population: The average application's surface (power and normalized
            performance averaged over the corpus); what Server+Res-Aware
            knows. ``None`` disables that policy.
        battery: The server's ESD, or ``None``.
        trust_weights: Optional per-app utility multipliers in (0, 1] from
            the mediator's TrustScorer - a distrusted tenant's performance
            counts for less when dividing the budget. ``None`` (the default)
            plans exactly as before defenses existed. The utility-blind
            baselines ignore it: they cannot weigh what they do not measure.
    """

    config: ServerConfig
    p_cap_w: float
    oracle: dict[str, CandidateSet]
    estimates: dict[str, CandidateSet]
    population: CandidateSet | None = None
    battery: LeadAcidBattery | None = None
    trust_weights: dict[str, float] | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p_cap_w) and self.p_cap_w > 0):
            raise ConfigurationError(
                f"cap must be finite and positive, got {self.p_cap_w!r}"
            )
        if set(self.oracle) != set(self.estimates):
            raise ConfigurationError("oracle and estimates must cover the same apps")

    @property
    def apps(self) -> list[str]:
        return sorted(self.oracle)

    @property
    def dynamic_budget_w(self) -> float:
        return self.config.dynamic_budget_w(self.p_cap_w)


# The utility-blind throttle order is a hardware-layer concept; it lives
# with the knob substrate and is re-exported here for the baselines.
from repro.server.knobs import hardware_throttle_path  # noqa: E402  (re-export)


def hardware_enforce(
    oracle: CandidateSet, config: ServerConfig, budget_w: float
) -> KnobSetting | None:
    """First knob on the throttle path whose *true* power fits ``budget_w``.

    The budget is derated by the server's RAPL guard band first: hardware
    RAPL tracks an average limit with a windowed control loop and sits
    conservatively below it, unlike direct knob allocation.

    ``None`` when even the path's end exceeds the derated budget (the app
    cannot run under this limit; temporal coordination must take over).
    """
    effective = budget_w * (1.0 - config.rapl_guard_band)
    # Applications admitted with narrow core groups expose a subset of the
    # knob space; path knobs outside it simply do not exist for them.
    available = _path_in(oracle, config)
    for knob, idx in available:
        if oracle.power_w[idx] <= effective + 1e-9:
            return knob
    # Hardware cannot throttle below the path's floor; when the floor fits
    # the *raw* budget the control loop settles there (averaging at the
    # limit) rather than refusing to run.
    if available:
        floor_knob, floor_idx = available[-1]
        if oracle.power_w[floor_idx] <= budget_w + 1e-9:
            return floor_knob
    return None


def _path_in(cset: CandidateSet, config: ServerConfig) -> list[tuple[KnobSetting, int]]:
    """The throttle path's knobs that ``cset`` holds, in path order, each
    with its position in ``cset``."""
    pairs = ((k, cset.position(k)) for k in hardware_throttle_path(config))
    return [(k, idx) for k, idx in pairs if idx is not None]


def _path_candidates(cset: CandidateSet, config: ServerConfig) -> CandidateSet:
    """Restrict a candidate set to the hardware throttle path (in path
    order, so index 0 is the uncapped end). Path knobs outside the set -
    possible for narrow-group applications - are skipped."""
    return cset.subset([idx for _, idx in _path_in(cset, config)])


def _record_allocation(
    budget_w: float, decisions: dict[str, tuple[KnobSetting | None, float, float]]
) -> Allocation:
    """Build an :class:`Allocation` record from per-app decisions
    ``name -> (knob or None, power_w, relative_perf)``."""
    apps: dict[str, AppAllocation] = {}
    objective = 0.0
    for name, (knob, power, rel) in decisions.items():
        if knob is None:
            apps[name] = AppAllocation(
                app=name,
                excluded=True,
                knob=KnobSetting(0.0, 0, 0.0) if knob is None else knob,
                power_w=0.0,
                relative_perf=0.0,
            )
        else:
            apps[name] = AppAllocation(
                app=name, excluded=False, knob=knob, power_w=power, relative_perf=rel
            )
            objective += rel
    return Allocation(budget_w=budget_w, apps=apps, objective=objective)


class Policy(abc.ABC):
    """Interface: turn a :class:`PolicyContext` into an
    :class:`~repro.core.coordinator.AllocationPlan`."""

    #: Paper name, e.g. ``"app+res-aware"``.
    name: str = "abstract"
    #: Whether the mediator should run online calibration for this policy.
    needs_learning: bool = False
    #: Whether the policy may schedule the battery.
    uses_esd: bool = False
    #: Whether the policy reads ``PolicyContext.population``.
    needs_population: bool = False

    @abc.abstractmethod
    def plan(self, ctx: PolicyContext) -> AllocationPlan:
        """Produce the plan for one allocation epoch."""

    # ------------------------------------------------------------- helpers

    def _idle_plan(self, ctx: PolicyContext) -> AllocationPlan:
        """Nothing can run: suspend everything and deep-sleep."""
        return AllocationPlan(
            mode=CoordinationMode.IDLE,
            p_cap_w=ctx.p_cap_w,
            allocation=_record_allocation(
                ctx.dynamic_budget_w, {n: (None, 0.0, 0.0) for n in ctx.apps}
            ),
        )

    def _fair_time_plan(
        self,
        ctx: PolicyContext,
        on_knobs: dict[str, KnobSetting | None],
        rel_perf: dict[str, float],
    ) -> AllocationPlan:
        """Fair alternate duty cycling: equal exclusive slots for every app
        that can run under the full dynamic budget."""
        runnable = sorted(n for n, k in on_knobs.items() if k is not None)
        if not runnable:
            return self._idle_plan(ctx)
        slot_s = ctx.config.duty_cycle_period_s / len(runnable)
        slots = tuple(
            TimeSlot(apps=(name,), duration_s=slot_s, knobs={name: on_knobs[name]})
            for name in runnable
        )
        share = 1.0 / len(runnable)
        decisions = {
            name: (
                (on_knobs[name], 0.0, share * rel_perf.get(name, 0.0))
                if name in runnable
                else (None, 0.0, 0.0)
            )
            for name in on_knobs
        }
        return AllocationPlan(
            mode=CoordinationMode.TIME,
            p_cap_w=ctx.p_cap_w,
            allocation=_record_allocation(ctx.dynamic_budget_w, decisions),
            slots=slots,
        )

    def _weighted_time_plan(
        self,
        ctx: PolicyContext,
        on_knobs: dict[str, KnobSetting | None],
        rel_perf: dict[str, float],
    ) -> AllocationPlan:
        """Utility-weighted duty cycling: every runnable app keeps at least
        a quarter of the rotation; the remainder goes to the app whose
        ON-configuration delivers the most normalized performance per unit
        time (the linear objective's optimum under the fairness floor)."""
        runnable = sorted(n for n, k in on_knobs.items() if k is not None)
        if not runnable:
            return self._idle_plan(ctx)
        floor = min(0.25, 1.0 / len(runnable))
        shares = {name: floor for name in runnable}
        # De-weighted tenants still keep the fairness floor; they just stop
        # winning the discretionary remainder of the rotation.
        wts = ctx.trust_weights or {}
        best = max(runnable, key=lambda n: rel_perf.get(n, 0.0) * wts.get(n, 1.0))
        shares[best] += 1.0 - floor * len(runnable)
        period = ctx.config.duty_cycle_period_s
        slots = tuple(
            TimeSlot(
                apps=(name,),
                duration_s=shares[name] * period,
                knobs={name: on_knobs[name]},
            )
            for name in runnable
            if shares[name] > 0
        )
        decisions = {
            name: (
                (on_knobs[name], 0.0, shares[name] * rel_perf.get(name, 0.0))
                if name in runnable
                else (None, 0.0, 0.0)
            )
            for name in on_knobs
        }
        return AllocationPlan(
            mode=CoordinationMode.TIME,
            p_cap_w=ctx.p_cap_w,
            allocation=_record_allocation(ctx.dynamic_budget_w, decisions),
            slots=slots,
        )


class UtilUnawarePolicy(Policy):
    """Baseline-1: fair split + hardware (RAPL-style) enforcement.

    "It is unaware of the power utilities and equally allocates the
    available power budget to all co-existing applications. We use RAPL
    hardware knob to allocate power." Under a stringent cap it "duty-cycles
    amongst the co-located applications in a fair manner".
    """

    name = "util-unaware"
    needs_learning = False
    uses_esd = False

    def plan(self, ctx: PolicyContext) -> AllocationPlan:
        budget = ctx.dynamic_budget_w
        if budget <= 0:
            return self._idle_plan(ctx)
        share = budget / len(ctx.apps)
        knobs: dict[str, KnobSetting] = {}
        decisions: dict[str, tuple[KnobSetting | None, float, float]] = {}
        feasible = True
        for name in ctx.apps:
            oracle = ctx.oracle[name]
            knob = hardware_enforce(oracle, ctx.config, share)
            if knob is None:
                feasible = False
                break
            idx = oracle.index_of(knob)
            knobs[name] = knob
            decisions[name] = (
                knob,
                float(oracle.power_w[idx]),
                float(oracle.perf[idx] / oracle.perf_nocap),
            )
        if feasible:
            return AllocationPlan(
                mode=CoordinationMode.SPACE,
                p_cap_w=ctx.p_cap_w,
                allocation=_record_allocation(budget, decisions),
                knobs=knobs,
            )
        # Fair alternate duty cycling; the ON app may use the whole budget.
        on_knobs: dict[str, KnobSetting | None] = {}
        rel: dict[str, float] = {}
        for name in ctx.apps:
            oracle = ctx.oracle[name]
            knob = hardware_enforce(oracle, ctx.config, budget)
            on_knobs[name] = knob
            if knob is not None:
                idx = oracle.index_of(knob)
                rel[name] = float(oracle.perf[idx] / oracle.perf_nocap)
        return self._fair_time_plan(ctx, on_knobs, rel)


class ServerResAwarePolicy(Policy):
    """Baseline-2: equal split + population-average resource utilities.

    "It is aware of power utilities of direct resources in a server, but is
    unaware of application-level differences. It uses the resource-level
    power utilities averaged across all applications."
    """

    name = "server+res-aware"
    needs_learning = False
    uses_esd = False
    needs_population = True

    def plan(self, ctx: PolicyContext) -> AllocationPlan:
        if ctx.population is None:
            raise ConfigurationError(
                "ServerResAwarePolicy needs the population-average surface"
            )
        budget = ctx.dynamic_budget_w
        if budget <= 0:
            return self._idle_plan(ctx)
        # Baseline-2 divides per-resource budgets from averaged utilities but
        # still enforces them through the hardware limit interface, so it
        # pays the same conservative tracking margin as baseline-1.
        share = budget / len(ctx.apps) * (1.0 - ctx.config.rapl_guard_band)
        generic_idx = ctx.population.best_index_under(share)
        knobs: dict[str, KnobSetting] = {}
        decisions: dict[str, tuple[KnobSetting | None, float, float]] = {}
        feasible = generic_idx is not None
        if feasible:
            generic_knob = ctx.population.knobs[generic_idx]
            for name in ctx.apps:
                oracle = ctx.oracle[name]
                knob: KnobSetting | None = generic_knob
                # The generic choice may overdraw for this particular app
                # (the policy cannot know) or lie outside a narrow-group
                # app's knob subset; hardware trims it down the path.
                if (
                    generic_knob not in oracle.knobs
                    or oracle.power_w[oracle.index_of(generic_knob)] > share + 1e-9
                ):
                    knob = hardware_enforce(oracle, ctx.config, share)
                if knob is None:
                    feasible = False
                    break
                idx = oracle.index_of(knob)
                knobs[name] = knob
                decisions[name] = (
                    knob,
                    float(oracle.power_w[idx]),
                    float(oracle.perf[idx] / oracle.perf_nocap),
                )
        if feasible:
            return AllocationPlan(
                mode=CoordinationMode.SPACE,
                p_cap_w=ctx.p_cap_w,
                allocation=_record_allocation(budget, decisions),
                knobs=knobs,
            )
        on_knobs: dict[str, KnobSetting | None] = {}
        rel: dict[str, float] = {}
        full_idx = ctx.population.best_index_under(budget)
        for name in ctx.apps:
            oracle = ctx.oracle[name]
            knob: KnobSetting | None = None
            if full_idx is not None:
                candidate = ctx.population.knobs[full_idx]
                if (
                    candidate in oracle.knobs
                    and oracle.power_w[oracle.index_of(candidate)] <= budget + 1e-9
                ):
                    knob = candidate
            if knob is None:
                knob = hardware_enforce(oracle, ctx.config, budget)
            on_knobs[name] = knob
            if knob is not None:
                idx = oracle.index_of(knob)
                rel[name] = float(oracle.perf[idx] / oracle.perf_nocap)
        return self._fair_time_plan(ctx, on_knobs, rel)


class AppAwarePolicy(Policy):
    """App-level utility awareness without per-resource tuning (R1 only).

    "It uses overall application power utilities to make its allocation, and
    does not tune it any further based on the direct resource utilities of
    individual applications." Budgets come from the knapsack over the
    *hardware throttle path* of each app (the app-level utility curve one
    observes while capping with DVFS-style enforcement); the chosen budgets
    are then enforced along that same path.
    """

    name = "app-aware"
    needs_learning = True
    uses_esd = False

    def __init__(self) -> None:
        self._allocator = PowerAllocator()

    def plan(self, ctx: PolicyContext) -> AllocationPlan:
        budget = ctx.dynamic_budget_w
        if budget <= 0:
            return self._idle_plan(ctx)
        # App-Aware presets the throttle-path knob that realizes each
        # share directly (measured open-loop, like the proposed schemes),
        # so it does not pay the RAPL tracking margin - its only handicap
        # versus App+Res-Aware is the utility-blind knob mix within an app.
        path_sets = {
            name: _path_candidates(ctx.estimates[name], ctx.config) for name in ctx.apps
        }
        allocation = self._allocator.allocate(
            path_sets, budget, weights=ctx.trust_weights
        )
        if not allocation.excluded:
            knobs = {n: a.knob for n, a in allocation.apps.items()}
            return AllocationPlan(
                mode=CoordinationMode.SPACE,
                p_cap_w=ctx.p_cap_w,
                allocation=allocation,
                knobs=knobs,
            )
        on_knobs: dict[str, KnobSetting | None] = {}
        rel: dict[str, float] = {}
        for name in ctx.apps:
            cset = path_sets[name]
            idx = cset.best_index_under(budget)
            on_knobs[name] = cset.knobs[idx] if idx is not None else None
            if idx is not None:
                rel[name] = float(cset.perf[idx] / cset.perf_nocap)
        return self._weighted_time_plan(ctx, on_knobs, rel)


class AppResAwarePolicy(Policy):
    """The paper's full spatial proposal (R1 + R2).

    "It partitions power allocated to each application and recursively down
    to each of its physical resources" - the exact multiple-choice knapsack
    over every application's Pareto frontier of (f, n, m) settings.
    """

    name = "app+res-aware"
    needs_learning = True
    uses_esd = False

    def __init__(self) -> None:
        self._allocator = PowerAllocator()

    def plan(self, ctx: PolicyContext) -> AllocationPlan:
        budget = ctx.dynamic_budget_w
        if budget <= 0:
            return self._idle_plan(ctx)
        allocation = self._allocator.allocate(
            {n: ctx.estimates[n] for n in ctx.apps}, budget, weights=ctx.trust_weights
        )
        if not allocation.excluded:
            knobs = {n: a.knob for n, a in allocation.apps.items()}
            return AllocationPlan(
                mode=CoordinationMode.SPACE,
                p_cap_w=ctx.p_cap_w,
                allocation=allocation,
                knobs=knobs,
            )
        on_knobs: dict[str, KnobSetting | None] = {}
        rel: dict[str, float] = {}
        for name in ctx.apps:
            cset = ctx.estimates[name]
            idx = cset.best_index_under(budget)
            on_knobs[name] = cset.knobs[idx] if idx is not None else None
            if idx is not None:
                rel[name] = float(cset.perf[idx] / cset.perf_nocap)
        return self._weighted_time_plan(ctx, on_knobs, rel)


class AppResEsdAwarePolicy(Policy):
    """R1 + R2 + R4: consolidated OFF/ON duty cycling with the battery.

    "Either all applications run at the same time (amortizing P_cm), or none
    of them do (incurring no P_cm)... this scheme uses the ESD to supplement
    the draw during the ON-period, which is banked during the previous
    OFF-period."
    """

    name = "app+res+esd-aware"
    needs_learning = True
    uses_esd = True

    def __init__(self) -> None:
        self._allocator = PowerAllocator()

    def plan(self, ctx: PolicyContext) -> AllocationPlan:
        if ctx.battery is None:
            raise ConfigurationError("AppResEsdAwarePolicy needs a battery in context")
        budget = ctx.dynamic_budget_w
        estimates = {n: ctx.estimates[n] for n in ctx.apps}
        if budget > 0:
            allocation = self._allocator.allocate(
                estimates, budget, weights=ctx.trust_weights
            )
            if not allocation.excluded:
                # Space coordination suffices; the battery stays idle (the
                # paper: "the servers use the ESD only during periods of
                # very stringent power cap").
                knobs = {n: a.knob for n, a in allocation.apps.items()}
                return AllocationPlan(
                    mode=CoordinationMode.SPACE,
                    p_cap_w=ctx.p_cap_w,
                    allocation=allocation,
                    knobs=knobs,
                )
        # Consolidated duty cycling: choose ON-phase knobs under the relaxed
        # budget the battery can physically supplement.
        cfg = ctx.config
        relaxed = (
            ctx.p_cap_w
            - cfg.p_idle_w
            - cfg.p_cm_w
            + ctx.battery.max_discharge_w
        )
        if relaxed <= 0 or ctx.p_cap_w <= cfg.p_idle_w:
            return self._idle_plan(ctx)
        allocation = self._allocator.allocate(
            estimates, relaxed, weights=ctx.trust_weights
        )
        included = allocation.included
        if not included:
            return self._idle_plan(ctx)
        knobs = {n: allocation.apps[n].knob for n in included}
        sum_app_w = allocation.total_power_w
        cycle = compute_duty_cycle(
            p_idle_w=cfg.p_idle_w,
            p_cm_w=cfg.p_cm_w,
            sum_app_w=sum_app_w,
            p_cap_w=ctx.p_cap_w,
            efficiency=ctx.battery.efficiency,
            period_s=cfg.duty_cycle_period_s,
        )
        return AllocationPlan(
            mode=CoordinationMode.ESD,
            p_cap_w=ctx.p_cap_w,
            allocation=allocation,
            knobs=knobs,
            duty_cycle=cycle,
        )


def make_policy(name: str) -> Policy:
    """Instantiate a policy by its paper name.

    Raises:
        ConfigurationError: for unknown names (listing :data:`POLICY_NAMES`).
    """
    factories: dict[str, type[Policy]] = {
        "util-unaware": UtilUnawarePolicy,
        "server+res-aware": ServerResAwarePolicy,
        "app-aware": AppAwarePolicy,
        "app+res-aware": AppResAwarePolicy,
        "app+res+esd-aware": AppResEsdAwarePolicy,
    }
    try:
        return factories[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown policy {name!r}; available: {POLICY_NAMES}"
        ) from None
