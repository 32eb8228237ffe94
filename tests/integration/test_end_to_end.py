"""Integration: full mediator scenarios mirroring Section IV-C (Fig. 11)."""

import pytest

from repro.core.coordinator import CoordinationMode
from repro.core.events import (
    ArrivalEvent,
    CapChangeEvent,
    DepartureEvent,
)
from repro.core.mediator import PowerMediator
from repro.core.policies import make_policy
from repro.server.server import SimulatedServer
from repro.workloads.catalog import CATALOG
from repro.workloads.mixes import get_mix


class TestArrivalScenario:
    """Fig. 11a: X264 joins SSSP under a 100 W cap."""

    @pytest.fixture(scope="class")
    def mediator(self, config):
        server = SimulatedServer(config)
        mediator = PowerMediator(
            server,
            make_policy("app+res-aware"),
            100.0,
            use_oracle_estimates=True,
            dt_s=0.1,
        )
        sssp = CATALOG["sssp"].with_total_work(float("inf"))
        x264 = CATALOG["x264"].with_total_work(float("inf"))
        mediator.add_application(sssp)
        mediator.run_for(20.0)
        mediator.add_application(x264)  # overhead charged
        mediator.run_for(20.0)
        return mediator

    def test_sssp_runs_alone_at_high_power_first(self, mediator):
        early = [r for r in mediator.timeline if r.time_s <= 20.0]
        solo_power = [r.app_power_w.get("sssp", 0.0) for r in early[10:]]
        assert min(solo_power) > 18.0  # uncapped demand, paper's ~25 W

    def test_sssp_power_drops_on_arrival(self, mediator):
        late = mediator.timeline[-1]
        assert late.app_power_w["sssp"] < 18.0

    def test_x264_receives_an_allocation(self, mediator):
        late = mediator.timeline[-1]
        assert late.app_power_w["x264"] > 8.0

    def test_combined_power_fits_budget(self, mediator, config):
        late = mediator.timeline[-1]
        total = sum(late.app_power_w.values())
        assert total <= config.dynamic_budget_w(100.0) + 1e-6

    def test_sssp_keeps_frequency_sheds_cores(self, mediator, config):
        """The paper's headline knob story."""
        knob = mediator.timeline[-1].app_knobs["sssp"]
        assert knob.freq_ghz >= 1.8  # stays near 2 GHz
        assert knob.cores <= 4  # consolidates (paper: 6 -> 3)

    def test_x264_keeps_cores_sheds_frequency(self, mediator, config):
        knob = mediator.timeline[-1].app_knobs["x264"]
        assert knob.cores >= 5  # keeps its pipeline wide
        assert knob.freq_ghz <= 1.7  # sheds frequency (paper: 2 -> 1.4)

    def test_cap_never_violated(self, mediator):
        for record in mediator.timeline:
            assert record.wall_w <= 100.0 + 1e-6

    def test_event_log_records_arrivals(self, mediator):
        arrivals = [
            e for e in mediator.accountant.event_log if isinstance(e, ArrivalEvent)
        ]
        assert [e.profile.name for e in arrivals] == ["sssp", "x264"]


class TestDepartureScenario:
    """Fig. 11b: PageRank finishes; kmeans is uncapped and scales up."""

    @pytest.fixture(scope="class")
    def mediator(self, config):
        server = SimulatedServer(config)
        mediator = PowerMediator(
            server,
            make_policy("app+res-aware"),
            100.0,
            use_oracle_estimates=True,
            dt_s=0.1,
        )
        kmeans = CATALOG["kmeans"].with_total_work(float("inf"))
        pagerank = CATALOG["pagerank"].with_total_work(40.0)
        mediator.add_application(kmeans)
        mediator.add_application(pagerank)
        mediator.run_for(60.0)
        return mediator

    def test_pagerank_departed(self, mediator):
        assert mediator.managed_apps() == ["kmeans"]
        departures = [
            e for e in mediator.accountant.event_log if isinstance(e, DepartureEvent)
        ]
        assert [e.app for e in departures] == ["pagerank"]
        assert departures[0].completed

    def test_kmeans_scales_up_after_departure(self, mediator):
        departure_t = next(
            e.time_s
            for e in mediator.accountant.event_log
            if isinstance(e, DepartureEvent)
        )
        before = [
            r for r in mediator.timeline if departure_t - 3.0 < r.time_s < departure_t
        ]
        after = [r for r in mediator.timeline if r.time_s > departure_t + 3.0]
        power_before = max(r.app_power_w.get("kmeans", 0.0) for r in before)
        power_after = max(r.app_power_w.get("kmeans", 0.0) for r in after)
        assert power_after > power_before + 3.0

    def test_kmeans_ends_uncapped(self, mediator, config):
        knob = mediator.timeline[-1].app_knobs["kmeans"]
        assert knob == config.max_knob

    def test_cap_held_throughout(self, mediator):
        for record in mediator.timeline:
            assert record.wall_w <= 100.0 + 1e-6


class TestCapChangeScenario:
    """E1: the server's budget drops mid-run and recovers."""

    def test_mode_transitions_follow_the_cap(self, config):
        server = SimulatedServer(config)
        mediator = PowerMediator(
            server, make_policy("app+res-aware"), 100.0, use_oracle_estimates=True
        )
        for profile in get_mix(10).profiles():
            mediator.add_application(profile.with_total_work(float("inf")))
        mediator.run_for(5.0)
        modes = [mediator.coordinator.plan.mode]
        mediator.set_power_cap(80.0)
        mediator.run_for(5.0)
        modes.append(mediator.coordinator.plan.mode)
        mediator.set_power_cap(100.0)
        mediator.run_for(5.0)
        modes.append(mediator.coordinator.plan.mode)
        assert modes == [
            CoordinationMode.SPACE,
            CoordinationMode.TIME,
            CoordinationMode.SPACE,
        ]
        caps = [e.new_cap_w for e in mediator.accountant.event_log if isinstance(e, CapChangeEvent)]
        assert caps == [100.0, 80.0, 100.0]
        for record in mediator.timeline:
            assert record.wall_w <= record.p_cap_w + 1e-6

    def test_throughput_tracks_the_cap(self, config):
        server = SimulatedServer(config)
        mediator = PowerMediator(
            server, make_policy("app+res-aware"), 100.0, use_oracle_estimates=True
        )
        for profile in get_mix(10).profiles():
            mediator.add_application(profile.with_total_work(float("inf")))
        mediator.run_for(10.0)
        loose = mediator.server_objective(since_s=2.0)
        mediator.set_power_cap(80.0)
        mediator.run_for(20.0)
        overall = mediator.server_objective(since_s=12.0)
        assert overall < loose
