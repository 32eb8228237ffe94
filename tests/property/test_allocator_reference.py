"""Hypothesis: the allocator's knapsack equals the per-option loop.

``reference_allocate`` and ``reference_envelope`` are the allocator's
earlier implementation, kept here verbatim in substance as the reference:
a Python loop over every Pareto option of every app, each option scanned
into the DP row with a strict ``>``, and an envelope scan over numpy
scalars. ``PowerAllocator.allocate`` and ``CandidateSet.frontier`` must
reproduce them exactly - same choices, same objective bits - on the
inputs where ties decide the answer: equal grid costs, equal
performance and performance equal to within the envelope's 1e-12
tolerance, utilities that tie only after the 1e-9 inclusion bonus,
budgets of zero, below one grain, and above every demand; with one, two
(closed-form first pass, searched last pass) and more apps (full passes
in between).
"""

import math

import hypothesis.strategies as st
import numpy as np
from hypothesis import example, given, settings

from repro.core.allocator import Allocation, AppAllocation, PowerAllocator
from repro.core.utility import CandidateSet
from repro.engine import VectorPowerModel
from repro.engine.surface import GRAIN_W
from repro.server.config import KnobSetting, ServerConfig
from repro.server.power_model import PowerModel
from repro.workloads.catalog import CATALOG


def reference_envelope(candidates: CandidateSet) -> list[int]:
    """The envelope scan over numpy scalars."""
    order = np.lexsort((-candidates.perf, candidates.power_w))
    frontier: list[int] = []
    best_perf = -np.inf
    for idx in order:
        perf = candidates.perf[idx]
        if perf > best_perf + 1e-12:
            frontier.append(int(idx))
            best_perf = perf
    return frontier


def reference_allocate(
    candidates: dict[str, CandidateSet],
    budget_w: float,
    *,
    weights: dict[str, float] | None = None,
) -> Allocation:
    """The knapsack DP with one masked update per option."""
    allocator = PowerAllocator()
    names = sorted(candidates)
    weight_of = allocator._check_weights(names, weights)  # noqa: SLF001
    budget = max(0.0, budget_w)
    steps = int(math.floor(budget / GRAIN_W))

    options: dict[str, list[tuple[int, float, int | None]]] = {}
    for name in names:
        cset = candidates[name]
        opts: list[tuple[int, float, int | None]] = [(0, 0.0, None)]
        for idx in reference_envelope(cset):
            cost = int(math.ceil(cset.power_w[idx] / GRAIN_W - 1e-9))
            if cost <= steps:
                utility = float(cset.perf[idx] / cset.perf_nocap)
                if weight_of is not None:
                    utility *= weight_of[name]
                opts.append((cost, utility + 1e-9, idx))
        options[name] = opts

    neg_inf = -np.inf
    value = np.zeros(steps + 1)
    choice = np.zeros((len(names), steps + 1), dtype=int)
    for i, name in enumerate(names):
        new_value = np.full(steps + 1, neg_inf)
        for opt_idx, (cost, utility, _) in enumerate(options[name]):
            if cost > steps:
                continue
            shifted = np.full(steps + 1, neg_inf)
            if cost == 0:
                shifted = value + utility
            else:
                shifted[cost:] = value[: steps + 1 - cost] + utility
            better = shifted > new_value
            new_value = np.where(better, shifted, new_value)
            choice[i][better] = opt_idx
        value = new_value

    best_w = int(np.argmax(value))
    objective = float(value[best_w])

    apps: dict[str, AppAllocation] = {}
    w = best_w
    for i in range(len(names) - 1, -1, -1):
        name = names[i]
        opt_idx = int(choice[i][w])
        cost, utility, knob_idx = options[name][opt_idx]
        cset = candidates[name]
        if knob_idx is None:
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
        w -= cost
    dp_result = Allocation(budget_w=budget_w, apps=apps, objective=objective)
    fair = allocator.allocate_fair(candidates, budget_w, weights=weights)
    return dp_result if dp_result.objective >= fair.objective else fair


_CONFIG = ServerConfig()
_CATALOG_SETS = {
    name: CandidateSet.from_models(profile, _CONFIG, power_model=PowerModel(_CONFIG))
    for name, profile in CATALOG.items()
}

# Synthetic sets. Powers come from a small per-set pool, so exact power
# ties are common; on-grid pool values tie on grid cost exactly and
# off-grid ones round up onto shared cells. Performance is a pooled level
# plus a jitter at and around the envelope's 1e-12 tolerance. Apps often
# share one response curve: the DP sums of two such clones tie exactly
# (addition commutes), which is where the first-maximum rule decides.
_POWERS = st.one_of(
    st.integers(min_value=0, max_value=120).map(lambda k: k * 0.25),
    st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
)
_PERF_LEVELS = st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0])
_JITTER = st.sampled_from([0.0, 0.0, 0.0, 4e-13, 1e-12, -1e-12, 3e-12])


def curve_set(app: str, power: list[float], perf: list[float], nocap: float) -> CandidateSet:
    """A synthetic candidate set with distinct knobs."""
    return CandidateSet(
        app=app,
        knobs=tuple(KnobSetting(1.0 + 0.1 * i, 1 + i % 6, 1.0 + i % 8) for i in range(len(power))),
        power_w=np.array(power),
        perf=np.array(perf),
        perf_nocap=nocap,
    )


#: Two clones whose best plan splits the budget 1 W / 3 W: the DP cell at
#: 4 W ties exactly between "first app cheap" and "first app dear".
_CLONE_TIE = (
    {name: curve_set(name, [1.0, 3.0], [0.5, 1.0], 1.0) for name in ("a", "b")},
    4.0,
    None,
)


#: Two frontier points on one grid cost: on the 0.25 W grid, 1.01 W and
#: 1.2 W both round up to 5 cells.
_SHARED_COST = (
    {
        "a": curve_set("a", [1.01, 1.2, 2.0], [0.5, 1.0, 1.5], 1.5),
        "b": curve_set("b", [1.01, 1.2], [0.4, 0.9], 1.0),
    },
    2.5,
    None,
)

#: Two frontier points (their perfs differ by more than the envelope's
#: 1e-12) whose utilities tie once the 1e-9 inclusion bonus is added:
#: 0.49999999999999994 + 1e-9 == 0.5 + 1e-9.
_BONUS_TIE_CURVE = ([1.0, 2.0], [30000.0, 30000.000000000004], 60000.00000000001)
_BONUS_TIE = (
    {name: curve_set(name, *_BONUS_TIE_CURVE) for name in ("a", "b")},
    4.0,
    None,
)

#: The last pass reaches its maximum at 6 of 9 cells ("b" dear, "a"
#: cheap); at the full budget a cheaper option of "b" ties it ("b" cheap,
#: "a" dear), so the plan depends on finding the first column.
_EARLY_MAXIMUM = (
    {
        "a": curve_set("a", [0.5, 1.5], [0.3, 0.7], 1.0),
        "b": curve_set("b", [0.5, 1.0], [0.3, 0.7], 1.0),
    },
    2.3,
    None,
)

#: A point below zero performance is on the frontier but loses to
#: exclusion: the first pass keeps the running maximum, not the last fit.
_NEGATIVE_PERF = (
    {
        "a": curve_set("a", [1.0, 2.0], [-0.5, 1.0], 1.0),
        "b": curve_set("b", [1.0], [1.0], 1.0),
    },
    2.5,
    None,
)

#: Three and four apps: the passes between the first and the last build
#: the full options x grid table.
_THREE_APPS = (
    {name: curve_set(name, [1.0, 2.5, 4.0], [0.5, 0.8, 1.0], 1.0) for name in ("a", "b", "c")},
    6.0,
    None,
)
_FOUR_APPS = (
    {
        "a": curve_set("a", [0.5, 1.0, 3.0], [0.2, 0.6, 1.0], 1.0),
        "b": curve_set("b", [1.01, 1.2, 2.0], [0.5, 1.0, 1.5], 1.5),
        "c": curve_set("c", [1.0, 2.5, 4.0], [0.5, 0.8, 1.0], 1.0),
        "d": curve_set("d", [2.0, 3.0], [1.0, 2.0], 2.0),
    },
    7.3,
    {"b": 0.5},
)


@st.composite
def curves(draw) -> tuple[list[float], list[float], float]:
    """One response curve: (power, perf, perf_nocap)."""
    n = draw(st.integers(min_value=1, max_value=12))
    power_pool = draw(st.lists(_POWERS, min_size=1, max_size=5))
    perf_pool = draw(st.lists(_PERF_LEVELS, min_size=1, max_size=4))
    power = [draw(st.sampled_from(power_pool)) for _ in range(n)]
    perf = [draw(st.sampled_from(perf_pool)) + draw(_JITTER) for _ in range(n)]
    if draw(st.booleans()):
        # Perf rising with power: most points land on the frontier.
        power, perf = sorted(power), sorted(perf)
    return power, perf, draw(st.sampled_from([max(perf), 3.0]))


@st.composite
def problems(draw) -> tuple:
    names = [f"app{i}" for i in range(draw(st.integers(min_value=1, max_value=4)))]
    shared = draw(st.lists(curves(), min_size=1, max_size=len(names)))
    candidates = {name: curve_set(name, *draw(st.sampled_from(shared))) for name in names}
    above_all = sum(c.max_power_w for c in candidates.values()) + 1.0
    budget = draw(
        st.one_of(
            st.just(0.0),
            st.floats(min_value=0.0, max_value=GRAIN_W, exclude_max=True),
            st.floats(min_value=-5.0, max_value=above_all, allow_nan=False),
            st.just(above_all),
        )
    )
    weights = draw(
        st.none()
        | st.dictionaries(
            st.sampled_from(names), st.floats(min_value=0.05, max_value=1.0)
        )
    )
    return candidates, budget, weights


class TestMatchesLoopReference:
    @given(problem=problems())
    @example(problem=_CLONE_TIE)
    @example(problem=_SHARED_COST)
    @example(problem=_BONUS_TIE)
    @example(problem=({"a": curve_set("a", *_BONUS_TIE_CURVE)}, 2.0, None))
    @example(problem=_EARLY_MAXIMUM)
    @example(problem=_NEGATIVE_PERF)
    @example(problem=_THREE_APPS)
    @example(problem=_FOUR_APPS)
    @settings(max_examples=200, deadline=None)
    def test_synthetic_sets(self, problem):
        candidates, budget, weights = problem
        for cset in candidates.values():
            assert cset.frontier.indices.tolist() == reference_envelope(cset)
        got = PowerAllocator().allocate(candidates, budget, weights=weights)
        want = reference_allocate(candidates, budget, weights=weights)
        assert got.to_dict() == want.to_dict()

    @given(
        apps=st.lists(st.sampled_from(sorted(CATALOG)), min_size=1, max_size=4, unique=True),
        budget=st.one_of(
            st.just(0.0),
            st.just(0.2),
            st.floats(min_value=0.0, max_value=70.0, allow_nan=False),
            st.just(200.0),
        ),
        weighted=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_catalog_sets(self, apps, budget, weighted):
        candidates = {name: _CATALOG_SETS[name] for name in apps}
        weights = {apps[0]: 0.4} if weighted else None
        got = PowerAllocator().allocate(candidates, budget, weights=weights)
        want = reference_allocate(candidates, budget, weights=weights)
        assert got.to_dict() == want.to_dict()

    def test_catalog_envelopes(self):
        for cset in _CATALOG_SETS.values():
            assert cset.frontier.indices.tolist() == reference_envelope(cset)


class TestSharedFrontiers:
    """A frontier cached with a response surface, or built once by a width
    subset, equals the reference envelope scan."""

    def test_catalog_surfaces_and_width_subsets(self):
        power_model = VectorPowerModel(_CONFIG)
        widths = range(_CONFIG.cores_min, _CONFIG.cores_max)
        for name, profile in CATALOG.items():
            cset = CandidateSet.from_models(profile, _CONFIG, power_model=power_model)
            assert cset.frontier is power_model.surface_of(profile).frontier
            subsets = [
                cset.subset(
                    [i for i, k in enumerate(cset.knobs) if k.cores <= width],
                    rebase_nocap=True,
                )
                for width in widths
            ]
            for view in [cset, _CATALOG_SETS[name], *subsets]:
                frontier = view.frontier
                assert frontier.indices.tolist() == reference_envelope(view)
                assert np.array_equal(
                    frontier.relative_perf, view.perf[frontier.indices] / view.perf_nocap
                )
