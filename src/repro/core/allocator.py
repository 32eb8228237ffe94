"""PowerAllocator: apportioning the dynamic power budget (R1 + R2).

Given each co-located application's candidate set (its power/performance
response over the knob space, measured or estimated) and the server's dynamic
budget ``P_cap - P_idle - P_cm``, the allocator solves

    maximize   sum_X Perf_X(knob_X) / Perf_X_nocap      (objective 1)
    subject to sum_X P_X(knob_X) <= budget

choosing one knob setting per application. Because each knob choice fixes
*both* the app's total power and its division across direct resources, R1
(per-app apportioning) and R2 (per-resource apportioning) are solved jointly.

This is a multiple-choice knapsack. It is solved exactly (up to a watt
discretization) by dynamic programming over the budget:

* per-app choice sets are first reduced to their Pareto frontier (a dominated
  knob - more power for no more performance - is never chosen);
* power costs are rounded *up* to the grid so discretization can never cause
  a cap overshoot;
* an application may be *excluded* (not scheduled this epoch, cost 0,
  utility 0) - that is how the allocator signals that the budget cannot host
  everyone and temporal coordination must take over (R3b/R4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.errors import ConfigurationError
from repro.core.utility import CandidateSet
from repro.engine.surface import GRAIN_W
from repro.server.config import KnobSetting


@dataclass(frozen=True)
class AppAllocation:
    """The allocator's decision for one application.

    Attributes:
        app: Application name.
        excluded: ``True`` when the app gets no power this epoch (temporal
            coordination will schedule it).
        knob: Chosen knob setting (the app's minimum-power knob when
            excluded, so a coordinator can still run it in its time slot).
        power_w: Expected ``P_X`` at the chosen knob (0 when excluded).
        relative_perf: Expected ``Perf/Perf_nocap`` at the chosen knob
            (0 when excluded).
    """

    app: str
    excluded: bool
    knob: KnobSetting
    power_w: float
    relative_perf: float

    def to_dict(self) -> dict:
        """JSON-safe form, used by checkpoints."""
        return {
            "app": self.app,
            "excluded": self.excluded,
            "knob": self.knob.to_json(),
            "power_w": self.power_w,
            "relative_perf": self.relative_perf,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AppAllocation":
        """Inverse of :meth:`to_dict`."""
        return cls(
            app=data["app"],
            excluded=bool(data["excluded"]),
            knob=KnobSetting.from_json(data["knob"]),
            power_w=float(data["power_w"]),
            relative_perf=float(data["relative_perf"]),
        )


@dataclass(frozen=True)
class Allocation:
    """A complete apportioning of the dynamic budget.

    Attributes:
        budget_w: The dynamic budget that was divided.
        apps: Per-application decisions, keyed by name.
        objective: Achieved sum of relative performances (objective 1).
    """

    budget_w: float
    apps: dict[str, AppAllocation]
    objective: float

    @property
    def total_power_w(self) -> float:
        """Expected total application power under this allocation."""
        return sum(a.power_w for a in self.apps.values() if not a.excluded)

    @property
    def included(self) -> list[str]:
        """Apps scheduled to run simultaneously, sorted."""
        return sorted(n for n, a in self.apps.items() if not a.excluded)

    @property
    def excluded(self) -> list[str]:
        """Apps the budget could not host, sorted."""
        return sorted(n for n, a in self.apps.items() if a.excluded)

    def share_of(self, app: str) -> float:
        """The app's fraction of the allocated application power (the
        paper's 46%-54% style splits). Zero when excluded or nothing runs."""
        total = self.total_power_w
        if total <= 0:
            return 0.0
        alloc = self.apps[app]
        return 0.0 if alloc.excluded else alloc.power_w / total

    def to_dict(self) -> dict:
        """JSON-safe form, used by checkpoints."""
        return {
            "budget_w": self.budget_w,
            "apps": {name: alloc.to_dict() for name, alloc in self.apps.items()},
            "objective": self.objective,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Allocation":
        """Inverse of :meth:`to_dict`."""
        return cls(
            budget_w=float(data["budget_w"]),
            apps={
                name: AppAllocation.from_dict(alloc)
                for name, alloc in data["apps"].items()
            },
            objective=float(data["objective"]),
        )


def _solve(
    options: list[tuple[np.ndarray, np.ndarray, np.ndarray]], steps: int
) -> tuple[float, list[int]]:
    """The knapsack DP over apps x budget grid: the objective and each app's
    chosen option.

    Pass i maps the running value ``V`` (one entry per grid column ``w``)
    to ``max_k V[w - cost_k] + utility_k`` and keeps the first maximizing
    option - the one a sequential strict-">" scan over the options keeps.
    ``V`` starts at zero and each row is ``V`` shifted right plus a
    constant, so every pass's value is nondecreasing in ``w``. Hence:

    * the first pass is closed form: column ``w`` reaches the running
      maximum of the utilities of the options that fit, first reached at
      the first option with that utility;
    * the last pass is only evaluated at the columns the backtrack reads:
      its maximum sits at the full budget, and a binary search finds the
      first column that reaches it (the first maximum);
    * only the passes in between build the options x grid table.
    """
    last = len(options) - 1
    first_cost, first_utility, _ = options[0]
    first_peak = np.maximum.accumulate(first_utility)

    def first_pick(w: int) -> int:
        reached = first_peak[first_cost.searchsorted(w, side="right") - 1]
        return int(first_peak.searchsorted(reached))

    if last == 0:
        pick = first_pick(steps)
        return float(first_peak[pick]), [pick]

    columns = np.arange(steps + 1)
    value = first_peak[first_cost.searchsorted(columns, side="right") - 1]
    # Middle passes, one max-plus table each: row k of ``shifted`` is the
    # running value moved right by option k's cost plus its utility (-inf
    # where it does not fit); ``argmax`` keeps each column's first maximum.
    unreachable = np.full(steps + 1, -np.inf)
    choices: list[np.ndarray] = []
    for cost, utility, _ in options[1:last]:
        padded = np.concatenate((unreachable, value))
        shifted = padded[(steps + 1 - cost)[:, None] + columns] + utility[:, None]
        choice = shifted.argmax(axis=0)
        value = shifted[choice, columns]
        choices.append(choice)

    last_cost, last_utility, _ = options[last]

    def last_column(w: int) -> tuple[int, float]:
        fits = last_cost.searchsorted(w, side="right")
        column = value[w - last_cost[:fits]] + last_utility[:fits]
        pick = int(column.argmax())
        return pick, float(column[pick])

    _, objective = last_column(steps)
    lo, hi = 0, steps
    while lo < hi:
        mid = (lo + hi) // 2
        if last_column(mid)[1] < objective:
            lo = mid + 1
        else:
            hi = mid
    pick, _ = last_column(lo)
    picks = [pick]
    w = lo - int(last_cost[pick])
    for i in range(last - 1, 0, -1):
        pick = int(choices[i - 1][w])
        picks.append(pick)
        w -= int(options[i][0][pick])
    picks.append(first_pick(w))
    picks.reverse()
    return objective, picks


class PowerAllocator:
    """Exact multiple-choice-knapsack apportioning of the dynamic budget on
    the :data:`~repro.engine.surface.GRAIN_W` grid. An app the budget cannot
    host is excluded (scheduled out this epoch), never an error."""

    @staticmethod
    def _check_weights(
        names: list[str], weights: Mapping[str, float] | None
    ) -> dict[str, float] | None:
        """Validate ``weights`` against ``names``; ``None`` when trivial.

        Collapsing the all-ones case to ``None`` keeps the weighted code
        path from ever perturbing an unweighted solve (golden traces pin
        defense-on == defense-off when every tenant is trusted).
        """
        if weights is None:
            return None
        weight_of: dict[str, float] = {}
        for name in names:
            value = float(weights.get(name, 1.0))
            if not math.isfinite(value) or value <= 0.0:
                raise ConfigurationError(
                    f"allocation weight for {name!r} must be positive and "
                    f"finite, got {value}"
                )
            weight_of[name] = value
        if all(value == 1.0 for value in weight_of.values()):
            return None
        return weight_of

    def allocate(
        self,
        candidates: dict[str, CandidateSet],
        budget_w: float,
        *,
        weights: Mapping[str, float] | None = None,
    ) -> Allocation:
        """Divide ``budget_w`` across the applications in ``candidates``.

        Args:
            candidates: Per-app candidate sets.
            budget_w: The dynamic budget to divide.
            weights: Optional per-app utility multipliers in (0, 1] - the
                TrustScorer's allocation de-weighting. A distrusted app's
                performance counts for less in the objective, so the
                knapsack shifts budget toward trusted tenants. Omitted apps
                weigh 1.0; ``None`` (or all-ones) is bit-identical to the
                unweighted solve. With weights in force, ``objective`` is
                reported in weighted units; per-app ``relative_perf`` stays
                unweighted truth.

        Returns:
            The optimal :class:`Allocation` (up to discretization). Because
            power costs are rounded *up* to the grid, the DP can lose a
            boundary configuration the exact arithmetic would admit; the
            result is therefore floored at the exact fair split, so the
            utility-aware allocator never returns a worse plan than the
            utility-blind fallback.

        Raises:
            ConfigurationError: on an empty candidate map, a non-finite
                budget or a non-positive weight.
        """
        if not candidates:
            raise ConfigurationError("no applications to allocate power to")
        if not math.isfinite(budget_w):
            raise ConfigurationError(f"budget must be finite, got {budget_w!r}")
        names = sorted(candidates)
        weight_of = self._check_weights(names, weights)
        budget = max(0.0, budget_w)
        steps = int(math.floor(budget / GRAIN_W))

        # Per-app options as aligned arrays (grid cost, utility, knob index):
        # option 0 is "excluded" (cost 0, utility 0, knob index -1), then
        # the Pareto frontier by ascending power. Each candidate set caches
        # them per grain; costs ascend, so the options that fit are a prefix.
        options: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for name in names:
            cset = candidates[name]
            cost, utility, knob_index = cset.frontier.options()
            fits = int(cost.searchsorted(steps, side="right"))
            if weight_of is None:
                utility = utility[:fits]
            else:
                # A tiny inclusion bonus breaks ties toward running the app
                # rather than idling it for equal objective value.
                weighted = cset.frontier.relative_perf[: fits - 1] * weight_of[name]
                utility = np.concatenate(([0.0], weighted + 1e-9))
            options.append((cost[:fits].astype(np.intp), utility, knob_index[:fits]))

        objective, picks = _solve(options, steps)

        # Build the plan from the last app back to the first.
        apps: dict[str, AppAllocation] = {}
        for i in range(len(names) - 1, -1, -1):
            name = names[i]
            knob_idx = int(options[i][2][picks[i]])
            cset = candidates[name]
            if knob_idx < 0:
                min_idx = int(np.argmin(cset.power_w))
                apps[name] = AppAllocation(
                    app=name,
                    excluded=True,
                    knob=cset.knobs[min_idx],
                    power_w=0.0,
                    relative_perf=0.0,
                )
            else:
                apps[name] = AppAllocation(
                    app=name,
                    excluded=False,
                    knob=cset.knobs[knob_idx],
                    power_w=float(cset.power_w[knob_idx]),
                    relative_perf=float(cset.perf[knob_idx] / cset.perf_nocap),
                )
        dp_result = Allocation(budget_w=budget_w, apps=apps, objective=objective)
        fair = self.allocate_fair(candidates, budget_w, weights=weights)
        return dp_result if dp_result.objective >= fair.objective else fair

    def allocate_fair(
        self,
        candidates: dict[str, CandidateSet],
        budget_w: float,
        *,
        weights: Mapping[str, float] | None = None,
    ) -> Allocation:
        """Equal per-app budgets with per-app best-fit knobs.

        This is *not* the paper's proposal - it is the building block of the
        fairness-oriented baselines: each application independently gets
        ``budget / k`` and picks its best configuration underneath it.
        ``weights`` only scales the reported objective (the floor comparison
        in :meth:`allocate` must be in the same units); each app's knob
        choice under its own share is weight-independent.
        """
        if not candidates:
            raise ConfigurationError("no applications to allocate power to")
        names = sorted(candidates)
        weight_of = self._check_weights(names, weights)
        share = max(0.0, budget_w) / len(names)
        apps: dict[str, AppAllocation] = {}
        objective = 0.0
        for name in names:
            cset = candidates[name]
            idx = cset.best_index_under(share)
            if idx is None:
                min_idx = int(np.argmin(cset.power_w))
                apps[name] = AppAllocation(
                    app=name,
                    excluded=True,
                    knob=cset.knobs[min_idx],
                    power_w=0.0,
                    relative_perf=0.0,
                )
            else:
                rel = float(cset.perf[idx] / cset.perf_nocap)
                apps[name] = AppAllocation(
                    app=name,
                    excluded=False,
                    knob=cset.knobs[idx],
                    power_w=float(cset.power_w[idx]),
                    relative_perf=rel,
                )
                objective += rel if weight_of is None else rel * weight_of[name]
        return Allocation(budget_w=budget_w, apps=apps, objective=objective)
