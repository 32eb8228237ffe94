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

from repro.errors import ConfigurationError, PowerBudgetError
from repro.core.utility import CandidateSet, pareto_envelope
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


class PowerAllocator:
    """Exact multiple-choice-knapsack apportioning of the dynamic budget.

    Args:
        grain_w: Budget discretization. 0.25 W keeps rounding loss well
            under the knob space's own power granularity.
        allow_exclusion: Permit scheduling only a subset (needed whenever
            the budget cannot host every app's cheapest config). Disable to
            make :meth:`allocate` raise instead - useful in tests.
    """

    def __init__(self, *, grain_w: float = 0.25, allow_exclusion: bool = True) -> None:
        if grain_w <= 0:
            raise ConfigurationError("grain_w must be positive")
        self._grain_w = grain_w
        self._allow_exclusion = allow_exclusion

    @property
    def grain_w(self) -> float:
        return self._grain_w

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
            PowerBudgetError: when exclusion is disabled and the budget
                cannot host every application simultaneously.
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
        steps = int(math.floor(budget / self._grain_w))

        # Per-app options as aligned arrays (grid cost, utility, knob index)
        # over the Pareto frontier points that fit; option 0 is always
        # "excluded" (cost 0, utility 0, knob index -1).
        options: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for name in names:
            cset = candidates[name]
            frontier = np.array(pareto_envelope(cset), dtype=np.intp)
            cost = np.ceil(cset.power_w[frontier] / self._grain_w - 1e-9)
            fits = cost <= steps
            frontier = frontier[fits]
            if frontier.size == 0 and not self._allow_exclusion:
                raise PowerBudgetError(
                    f"budget {budget_w:.2f} W cannot host {name!r} "
                    f"(cheapest config needs {cset.min_power_w:.2f} W) and "
                    "exclusion is disabled"
                )
            utility = cset.perf[frontier] / cset.perf_nocap
            if weight_of is not None:
                utility = utility * weight_of[name]
            # A tiny inclusion bonus breaks ties toward running the app
            # rather than idling it for equal objective value.
            options.append((
                np.concatenate(([0], cost[fits].astype(np.intp))),
                np.concatenate(([0.0], utility + 1e-9)),
                np.concatenate(([-1], frontier)),
            ))

        # DP over apps x budget grid, one max-plus pass per app: row k of
        # ``shifted`` is the running value moved right by option k's cost
        # plus its utility (-inf where it does not fit). The first maximum
        # of each column is the option a sequential strict-">" scan over
        # the options would keep.
        columns = np.arange(steps + 1)
        unreachable = np.full(steps + 1, -np.inf)
        value = np.zeros(steps + 1)
        choice = np.empty((len(names), steps + 1), dtype=np.intp)
        for i, (cost, utility, _) in enumerate(options):
            padded = np.concatenate((unreachable, value))
            shifted = padded[(steps + 1 - cost)[:, None] + columns] + utility[:, None]
            choice[i] = shifted.argmax(axis=0)
            value = shifted[choice[i], columns]

        best_w = int(np.argmax(value))
        objective = float(value[best_w])

        # Backtrack the chosen options.
        apps: dict[str, AppAllocation] = {}
        w = best_w
        for i in range(len(names) - 1, -1, -1):
            name = names[i]
            cost, _, knob_index = options[i]
            opt_idx = choice[i, w]
            knob_idx = int(knob_index[opt_idx])
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
                if not self._allow_exclusion:
                    raise PowerBudgetError(
                        f"budget {budget_w:.2f} W cannot host all of {names} "
                        "simultaneously and exclusion is disabled"
                    )
            else:
                apps[name] = AppAllocation(
                    app=name,
                    excluded=False,
                    knob=cset.knobs[knob_idx],
                    power_w=float(cset.power_w[knob_idx]),
                    relative_perf=float(cset.perf[knob_idx] / cset.perf_nocap),
                )
            w -= int(cost[opt_idx])
        dp_result = Allocation(budget_w=budget_w, apps=apps, objective=objective)
        fair = self.allocate_fair(candidates, budget_w, weights=weights)
        if fair.excluded and not self._allow_exclusion:
            return dp_result
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
