"""Mediator configuration options: custom corpus, sampler, dt."""

import pytest

from repro.errors import ConfigurationError
from repro.core.mediator import PowerMediator
from repro.core.policies import make_policy
from repro.learning.crossval import build_exhaustive_corpus
from repro.learning.sampling import StratifiedSampler
from repro.server.server import SimulatedServer
from repro.workloads.catalog import CATALOG


class TestOptions:
    def test_custom_corpus_is_used(self, config):
        """A cold-start corpus (few seen apps) still produces a working
        mediator - the CF estimates are worse, the guard protects the cap."""
        corpus = build_exhaustive_corpus(
            config, [CATALOG[n] for n in ("bfs", "ferret", "apr", "triangle")]
        )
        server = SimulatedServer(config)
        mediator = PowerMediator(
            server, make_policy("app+res-aware"), 100.0, corpus=corpus, seed=2
        )
        for name in ("pagerank", "kmeans"):
            mediator.add_application(CATALOG[name].with_total_work(float("inf")))
        mediator.run_for(4.0)
        for record in mediator.timeline:
            assert record.wall_w <= 100.0 + 1e-6
        assert mediator.server_objective(since_s=1.0) > 0.5

    def test_custom_sampler(self, config):
        server = SimulatedServer(config)
        mediator = PowerMediator(
            server,
            make_policy("app+res-aware"),
            100.0,
            sampler=StratifiedSampler(0.05, seed=9),
            seed=9,
        )
        mediator.add_application(CATALOG["kmeans"].with_total_work(float("inf")))
        mediator.run_for(2.0)
        assert mediator.server_objective(since_s=0.5) > 0.5

    def test_invalid_dt_rejected(self, config):
        with pytest.raises(ConfigurationError):
            PowerMediator(
                SimulatedServer(config), make_policy("util-unaware"), 100.0, dt_s=0.0
            )

    def test_coarse_dt_still_holds_cap(self, config):
        server = SimulatedServer(config)
        mediator = PowerMediator(
            server,
            make_policy("app+res-aware"),
            100.0,
            dt_s=0.5,
            use_oracle_estimates=True,
        )
        for name in ("pagerank", "kmeans"):
            mediator.add_application(CATALOG[name].with_total_work(float("inf")))
        mediator.run_for(10.0)
        for record in mediator.timeline:
            assert record.wall_w <= 100.0 + 1e-6
