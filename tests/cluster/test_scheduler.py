"""Power-aware job placement (the paper's future-work extension)."""

import pytest

from repro.errors import ConfigurationError, SchedulingError
from repro.cluster.scheduler import PLACEMENT_POLICIES, PowerAwareScheduler
from repro.workloads.catalog import CATALOG


def scheduler(config, caps=(100.0, 100.0), **kwargs):
    return PowerAwareScheduler(config, list(caps), **kwargs)


class TestConstruction:
    def test_strategies_enumerated(self):
        assert "power-aware" in PLACEMENT_POLICIES
        assert "first-fit" in PLACEMENT_POLICIES

    def test_empty_cluster_rejected(self, config):
        with pytest.raises(ConfigurationError):
            PowerAwareScheduler(config, [])

    def test_invalid_cap_rejected(self, config):
        with pytest.raises(ConfigurationError):
            PowerAwareScheduler(config, [0.0])

    def test_unknown_strategy_rejected(self, config):
        with pytest.raises(ConfigurationError):
            scheduler(config, strategy="tetris")


class TestPlacement:
    def test_duplicate_placement_rejected(self, config):
        sched = scheduler(config)
        sched.place(CATALOG["kmeans"])
        with pytest.raises(SchedulingError):
            sched.place(CATALOG["kmeans"])

    def test_full_cluster_returns_none(self, config):
        sched = scheduler(config, caps=(100.0,))
        for name in ("kmeans", "stream"):
            sched.place(CATALOG[name])
        placement = sched.place(CATALOG["sssp"])
        assert placement.server is None

    def test_capacity_respected(self, config):
        sched = scheduler(config, caps=(100.0,))
        for name in ("kmeans", "stream"):
            assert sched.place(CATALOG[name]).server == 0
        assert sched.place(CATALOG["sssp"]).server is None

    def test_round_robin_cycles(self, config):
        sched = scheduler(config, caps=(100.0, 100.0, 100.0), strategy="round-robin")
        targets = [sched.place(CATALOG[n]).server for n in ("kmeans", "stream", "sssp")]
        assert targets == [0, 1, 2]

    def test_first_fit_fills_in_order(self, config):
        sched = scheduler(config, caps=(100.0, 100.0), strategy="first-fit")
        targets = [sched.place(CATALOG[n]).server for n in ("kmeans", "stream", "sssp")]
        assert targets == [0, 0, 1]


class TestPowerAwareness:
    def test_prefers_the_slack_cap(self, config):
        """An empty tight-capped server loses to an empty loose one."""
        sched = scheduler(config, caps=(75.0, 120.0))
        placement = sched.place(CATALOG["kmeans"])
        assert placement.server == 1

    def test_avoids_crowding_a_struggling_server(self, config):
        """With a tight cap, joining the loaded server scores below taking
        an empty one - even though both have free cores."""
        sched = scheduler(config, caps=(90.0, 90.0))
        sched.place(CATALOG["kmeans"])
        second = sched.place(CATALOG["pagerank"])
        assert second.server != sched.servers[0].index or not sched.servers[0].apps

    def test_marginal_gain_is_nonnegative_for_free_budget(self, config):
        sched = scheduler(config, caps=(130.0,))
        gain = sched.marginal_gain(sched.servers[0], CATALOG["kmeans"])
        assert gain == pytest.approx(1.0, abs=0.05)  # uncapped newcomer

    def test_zero_budget_scores_zero(self, config):
        sched = scheduler(config, caps=(60.0,))
        gain = sched.marginal_gain(sched.servers[0], CATALOG["kmeans"])
        assert gain == 0.0

    def test_beats_first_fit_under_heterogeneous_caps(self, config):
        """The headline property of the extension (averaged, seeded)."""
        import numpy as np

        names = sorted(CATALOG)
        rng = np.random.default_rng(7)
        totals = {"power-aware": 0.0, "first-fit": 0.0}
        for _ in range(8):
            order = list(rng.choice(names, size=4, replace=False))
            caps = list(rng.choice([75.0, 85.0, 100.0, 120.0], size=4))
            for strategy in totals:
                sched = PowerAwareScheduler(config, caps, strategy=strategy)
                for name in order:
                    sched.place(CATALOG[name])
                totals[strategy] += sched.cluster_objective()
        assert totals["power-aware"] > totals["first-fit"] * 1.1

    def test_cluster_objective_sums_servers(self, config):
        sched = scheduler(config, caps=(100.0, 100.0))
        sched.place(CATALOG["kmeans"])
        sched.place(CATALOG["stream"])
        total = sum(sched.server_objective(s) for s in sched.servers)
        assert sched.cluster_objective() == pytest.approx(total)
