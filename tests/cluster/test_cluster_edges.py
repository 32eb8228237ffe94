"""Cluster simulator edge cases: standby power, custom mixes, small fleets."""

from repro.cluster.cluster import UNLOADED_SERVER_POWER_W, ClusterSimulator
from repro.workloads.mixes import get_mix
from repro.workloads.traces import ClusterPowerTrace


class TestCustomFleets:
    def test_two_server_cluster(self, config):
        sim = ClusterSimulator(config, mixes=[get_mix(1), get_mix(10)])
        assert sim.n_servers == 2
        trace = ClusterPowerTrace.synthetic_diurnal(
            peak_w=sim.uncapped_cluster_power_w(), step_s=1800.0, seed=2
        )
        experiment = sim.run(
            trace=trace, shave_fractions=(0.15,), duration_s=8.0, warmup_s=4.0
        )
        per = experiment.results[0.15]
        assert all(0.0 <= r.aggregate_performance <= 1.0 for r in per.values())

    def test_offered_load_bounded_by_fleet(self, config):
        sim = ClusterSimulator(config, mixes=[get_mix(1), get_mix(10)])
        huge = 10 * sim.uncapped_cluster_power_w()
        assert sim.offered_load(huge) == 2

    def test_duplicate_apps_across_servers_are_distinct(self, config):
        # Mixes 1 and 13 both contain kmeans; names must not collide.
        sim = ClusterSimulator(config, mixes=[get_mix(1), get_mix(13)])
        names = [p.name for p in sim.apps_for_load(2)]
        assert len(names) == len(set(names))


class TestStandbyPower:
    def test_standby_cost_shifts_equal_policy_power(self, config):
        sim = ClusterSimulator(config)
        trace = ClusterPowerTrace.synthetic_diurnal(
            peak_w=sim.uncapped_cluster_power_w(), step_s=1800.0, seed=3
        )
        experiment = sim.run(
            trace=trace, shave_fractions=(0.15,), duration_s=8.0, warmup_s=4.0
        )
        result = experiment.results[0.15]["equal-rapl"]
        # Ten servers at >= the standby draw floor the mean power accordingly.
        assert result.mean_power_w > 10 * UNLOADED_SERVER_POWER_W * 0.5


class TestLoadedPowerCache:
    def test_loaded_power_is_stable(self, config):
        sim = ClusterSimulator(config)
        first = sim.loaded_server_power_w(0)
        second = sim.loaded_server_power_w(0)
        assert first == second
        assert 90.0 <= first <= config.uncapped_power_w
