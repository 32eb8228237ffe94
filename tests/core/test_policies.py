"""The five policies: modes chosen, budgets respected, paper orderings."""

import pytest

from repro.errors import ConfigurationError
from repro.core.coordinator import CoordinationMode
from repro.core.policies import (
    AppAwarePolicy,
    AppResAwarePolicy,
    AppResEsdAwarePolicy,
    POLICY_NAMES,
    PolicyContext,
    ServerResAwarePolicy,
    UtilUnawarePolicy,
    hardware_enforce,
    hardware_throttle_path,
    make_policy,
)
from repro.core.utility import CandidateSet
from repro.esd.battery import LeadAcidBattery
from repro.workloads.catalog import CATALOG
from repro.workloads.mixes import get_mix


@pytest.fixture(scope="module")
def oracle_sets(config, power_model):
    return {
        name: CandidateSet.from_models(profile, config, power_model=power_model)
        for name, profile in CATALOG.items()
    }


@pytest.fixture(scope="module")
def population(config, power_model):
    import numpy as np
    from repro.learning.crossval import build_exhaustive_corpus

    corpus = build_exhaustive_corpus(config, list(CATALOG.values()))
    power = corpus.power_rows()
    perf = corpus.perf_rows()
    scales = perf.max(axis=1, keepdims=True)
    return CandidateSet.from_estimates(
        "population", config, power.mean(axis=0), (perf / scales).mean(axis=0)
    )


def context_for(config, oracle_sets, population, mix_id, p_cap_w, battery=None):
    mix = get_mix(mix_id)
    subset = {n: oracle_sets[n] for n in mix.names()}
    return PolicyContext(
        config=config,
        p_cap_w=p_cap_w,
        oracle=subset,
        estimates=subset,
        population=population,
        battery=battery,
    )


class TestThrottlePath:
    def test_path_starts_at_max_knob(self, config):
        assert hardware_throttle_path(config)[0] == config.max_knob

    def test_path_ends_at_min_knob(self, config):
        assert hardware_throttle_path(config)[-1] == config.min_knob

    def test_path_power_is_monotone_decreasing_for_compute_apps(
        self, config, oracle_sets
    ):
        cset = oracle_sets["kmeans"]
        powers = [
            cset.power_w[cset.index_of(k)] for k in hardware_throttle_path(config)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(powers, powers[1:]))

    def test_path_has_no_duplicates(self, config):
        path = hardware_throttle_path(config)
        assert len(path) == len(set(path))

    def test_enforce_fits_budget(self, config, oracle_sets):
        for budget in (25.0, 15.0, 12.0):
            knob = hardware_enforce(oracle_sets["kmeans"], config, budget)
            assert knob is not None
            cset = oracle_sets["kmeans"]
            assert cset.power_w[cset.index_of(knob)] <= budget + 1e-9

    def test_enforce_floor_fallback(self, config, oracle_sets):
        """A budget between floor and derated floor still runs (RAPL parks
        at the floor rather than refusing)."""
        cset = oracle_sets["kmeans"]
        floor_power = float(cset.power_w[cset.index_of(config.min_knob)])
        knob = hardware_enforce(cset, config, floor_power + 0.01)
        assert knob == config.min_knob

    def test_enforce_infeasible_returns_none(self, config, oracle_sets):
        assert hardware_enforce(oracle_sets["kmeans"], config, 3.0) is None


class TestRegistry:
    def test_all_names_construct(self):
        for name in POLICY_NAMES:
            assert make_policy(name).name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_policy("heracles")


class TestModeSelection:
    @pytest.mark.parametrize(
        "policy_cls",
        [UtilUnawarePolicy, ServerResAwarePolicy, AppAwarePolicy, AppResAwarePolicy],
    )
    def test_space_mode_at_100w(self, config, oracle_sets, population, policy_cls):
        ctx = context_for(config, oracle_sets, population, 10, 100.0)
        plan = policy_cls().plan(ctx)
        assert plan.mode is CoordinationMode.SPACE

    @pytest.mark.parametrize(
        "policy_cls",
        [UtilUnawarePolicy, ServerResAwarePolicy, AppAwarePolicy, AppResAwarePolicy],
    )
    def test_time_mode_at_80w(self, config, oracle_sets, population, policy_cls):
        """80 W cannot host two ~10 W minimums simultaneously."""
        ctx = context_for(config, oracle_sets, population, 10, 80.0)
        plan = policy_cls().plan(ctx)
        assert plan.mode is CoordinationMode.TIME

    def test_esd_policy_stays_spatial_when_loose(self, config, oracle_sets, population):
        battery = LeadAcidBattery(capacity_j=10_000.0)
        ctx = context_for(config, oracle_sets, population, 10, 100.0, battery)
        plan = AppResEsdAwarePolicy().plan(ctx)
        assert plan.mode is CoordinationMode.SPACE  # "ESD only under stringent caps"

    def test_esd_policy_duty_cycles_at_80w(self, config, oracle_sets, population):
        battery = LeadAcidBattery(capacity_j=10_000.0)
        ctx = context_for(config, oracle_sets, population, 10, 80.0, battery)
        plan = AppResEsdAwarePolicy().plan(ctx)
        assert plan.mode is CoordinationMode.ESD
        assert plan.duty_cycle is not None
        assert plan.duty_cycle.off_s > 0

    def test_esd_policy_works_below_cm_threshold(self, config, oracle_sets, population):
        """At 70 W nothing can run without the battery (Fig. 5 regime)."""
        battery = LeadAcidBattery(capacity_j=10_000.0)
        ctx = context_for(config, oracle_sets, population, 10, 70.0, battery)
        plan = AppResEsdAwarePolicy().plan(ctx)
        assert plan.mode is CoordinationMode.ESD

    def test_non_esd_policies_idle_below_idle_plus_cm_plus_min(
        self, config, oracle_sets, population
    ):
        ctx = context_for(config, oracle_sets, population, 10, 70.0)
        plan = UtilUnawarePolicy().plan(ctx)
        assert plan.mode is CoordinationMode.IDLE

    def test_esd_policy_requires_battery(self, config, oracle_sets, population):
        ctx = context_for(config, oracle_sets, population, 10, 80.0)
        with pytest.raises(ConfigurationError):
            AppResEsdAwarePolicy().plan(ctx)

    @pytest.mark.parametrize("cap", [float("nan"), float("inf"), -float("inf"), 0.0])
    def test_context_rejects_non_finite_or_non_positive_cap(self, config, oracle_sets, cap):
        subset = {n: oracle_sets[n] for n in get_mix(10).names()}
        with pytest.raises(ConfigurationError, match="cap must be finite and positive"):
            PolicyContext(config=config, p_cap_w=cap, oracle=subset, estimates=subset)

    def test_server_res_requires_population(self, config, oracle_sets):
        mix = get_mix(10)
        subset = {n: oracle_sets[n] for n in mix.names()}
        ctx = PolicyContext(
            config=config, p_cap_w=100.0, oracle=subset, estimates=subset
        )
        with pytest.raises(ConfigurationError):
            ServerResAwarePolicy().plan(ctx)


class TestBudgets:
    @pytest.mark.parametrize(
        "policy_cls",
        [UtilUnawarePolicy, ServerResAwarePolicy, AppAwarePolicy, AppResAwarePolicy],
    )
    def test_space_plans_fit_the_cap(
        self, config, oracle_sets, population, power_model, policy_cls
    ):
        for mix_id in (1, 10, 14):
            ctx = context_for(config, oracle_sets, population, mix_id, 100.0)
            plan = policy_cls().plan(ctx)
            running = {
                name: (CATALOG[name], knob) for name, knob in plan.knobs.items()
            }
            assert power_model.server_breakdown(running).wall_w <= 100.0 + 1e-6

    def test_time_slots_fit_the_cap(self, config, oracle_sets, population, power_model):
        for policy_cls in (UtilUnawarePolicy, AppResAwarePolicy):
            ctx = context_for(config, oracle_sets, population, 10, 80.0)
            plan = policy_cls().plan(ctx)
            for slot in plan.slots:
                running = {
                    name: (CATALOG[name], slot.knobs[name]) for name in slot.apps
                }
                assert power_model.server_breakdown(running).wall_w <= 80.0 + 1e-6

    def test_esd_on_phase_overshoot_within_battery(self, config, oracle_sets, population):
        battery = LeadAcidBattery(capacity_j=10_000.0, max_discharge_w=60.0)
        ctx = context_for(config, oracle_sets, population, 10, 80.0, battery)
        plan = AppResEsdAwarePolicy().plan(ctx)
        assert plan.duty_cycle.discharge_w <= battery.max_discharge_w + 1e-9


class TestPaperOrderings:
    def test_app_aware_splits_unevenly_for_mix10(
        self, config, oracle_sets, population
    ):
        """Mix-10: PageRank takes the larger share (the 55-45 split)."""
        ctx = context_for(config, oracle_sets, population, 10, 100.0)
        plan = AppResAwarePolicy().plan(ctx)
        assert plan.allocation.share_of("pagerank") > plan.allocation.share_of("kmeans")

    def test_util_unaware_splits_evenly(self, config, oracle_sets, population):
        ctx = context_for(config, oracle_sets, population, 10, 100.0)
        plan = UtilUnawarePolicy().plan(ctx)
        shares = [plan.allocation.share_of(n) for n in ("pagerank", "kmeans")]
        assert abs(shares[0] - shares[1]) < 0.12  # near-even (knob grid granularity)

    def test_app_res_objective_dominates_baselines(
        self, config, oracle_sets, population
    ):
        """On oracle estimates, the full DP beats every baseline's plan."""
        for mix_id in (1, 10, 14):
            ctx = context_for(config, oracle_sets, population, mix_id, 100.0)
            objectives = {}
            for cls in (UtilUnawarePolicy, ServerResAwarePolicy, AppResAwarePolicy):
                plan = cls().plan(ctx)
                objectives[cls.__name__] = plan.allocation.objective
            assert objectives["AppResAwarePolicy"] >= objectives["UtilUnawarePolicy"] - 1e-6
            assert (
                objectives["AppResAwarePolicy"]
                >= objectives["ServerResAwarePolicy"] - 1e-6
            )

    def test_weighted_time_shares_favor_better_app(
        self, config, oracle_sets, population
    ):
        ctx = context_for(config, oracle_sets, population, 14, 80.0)
        plan = AppResAwarePolicy().plan(ctx)
        durations = {slot.apps[0]: slot.duration_s for slot in plan.slots}
        assert len(durations) == 2
        assert max(durations.values()) > min(durations.values())
