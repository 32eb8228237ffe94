"""PowerMediator: end-to-end event handling, cap adherence, dynamics.

Mediators come from the shared engine-parameterized ``make_mediator``
factory (``tests/conftest.py``), so every behaviour here is pinned under
both the scalar reference and the vector fast path.
"""

import pytest

from repro.errors import ConfigurationError, SchedulingError
from repro.core.coordinator import CoordinationMode
from repro.core.mediator import PowerMediator
from repro.core.policies import make_policy
from repro.core.simulation import default_battery
from repro.engine import planner
from repro.observability.trace import TraceBus
from repro.server.server import SimulatedServer
from repro.workloads.catalog import CATALOG
from repro.workloads.generator import PhasedProfile
from repro.workloads.profiles import WorkloadProfile


class TestLifecycle:
    def test_add_and_run(self, make_mediator, kmeans):
        mediator = make_mediator()
        mediator.add_application(kmeans)
        mediator.run_for(2.0)
        assert mediator.normalized_throughput("kmeans") > 0.5

    def test_two_apps_under_cap(self, make_mediator, kmeans, pagerank):
        mediator = make_mediator()
        mediator.add_application(pagerank)
        mediator.add_application(kmeans)
        mediator.run_for(3.0)
        for record in mediator.timeline:
            assert record.wall_w <= 100.0 + 1e-6

    def test_esd_policy_requires_battery(self, config):
        server = SimulatedServer(config)
        with pytest.raises(ConfigurationError):
            PowerMediator(server, make_policy("app+res+esd-aware"), 80.0)

    def test_reallocate_without_apps_rejected(self, make_mediator):
        mediator = make_mediator()
        with pytest.raises(SchedulingError):
            mediator.reallocate()

    def test_phased_profile_must_match_initial(self, make_mediator, kmeans):
        heavy = WorkloadProfile.from_dict({**kmeans.to_dict(), "mem_gb_per_work": 1.0})
        phased = PhasedProfile([(0.0, kmeans), (0.5, heavy)])
        mediator = make_mediator()
        with pytest.raises(ConfigurationError):
            mediator.add_application(heavy, phased=phased)

    def test_invalid_duration_rejected(self, make_mediator, kmeans):
        mediator = make_mediator()
        mediator.add_application(kmeans)
        with pytest.raises(ConfigurationError):
            mediator.run_for(0.0)


class TestCapChange(object):
    def test_e1_triggers_reallocation(self, make_mediator, kmeans, pagerank):
        """Dropping 100 -> 80 W forces a switch to temporal coordination."""
        mediator = make_mediator(policy="app+res-aware")
        mediator.add_application(pagerank)
        mediator.add_application(kmeans)
        mediator.run_for(2.0)
        assert mediator.coordinator.plan.mode is CoordinationMode.SPACE
        mediator.set_power_cap(80.0)
        assert mediator.coordinator.plan.mode is CoordinationMode.TIME
        mediator.run_for(2.0)
        for record in mediator.timeline:
            assert record.wall_w <= record.p_cap_w + 1e-6

    @pytest.mark.parametrize("cap", [float("nan"), float("inf"), -float("inf"), 0.0])
    def test_non_finite_or_non_positive_cap_rejected(self, make_mediator, kmeans, cap):
        mediator = make_mediator()
        mediator.add_application(kmeans)
        plan = mediator.coordinator.plan
        with pytest.raises(ConfigurationError, match="cap must be finite and positive"):
            mediator.set_power_cap(cap)
        assert mediator.p_cap_w == 100.0
        assert mediator.coordinator.plan is plan

    @pytest.mark.parametrize("cap", [float("nan"), float("inf"), -float("inf"), 0.0])
    def test_constructor_rejects_non_finite_or_non_positive_cap(self, make_mediator, cap):
        with pytest.raises(ConfigurationError, match="cap must be finite and positive"):
            make_mediator(cap=cap)

    def test_cap_raise_restores_space_mode(self, make_mediator, kmeans, pagerank):
        mediator = make_mediator(cap=80.0)
        mediator.add_application(pagerank)
        mediator.add_application(kmeans)
        assert mediator.coordinator.plan.mode is CoordinationMode.TIME
        mediator.set_power_cap(110.0)
        assert mediator.coordinator.plan.mode is CoordinationMode.SPACE


class TestPopulationView:
    @pytest.mark.parametrize(
        ("policy", "builds"), [("app+res-aware", False), ("server+res-aware", True)]
    )
    def test_built_only_for_a_policy_that_reads_it(
        self, make_mediator, kmeans, monkeypatch, policy, builds
    ):
        built = []
        original = PowerMediator._get_population

        def recording(mediator):
            built.append(mediator)
            return original(mediator)

        monkeypatch.setattr(PowerMediator, "_get_population", recording)
        mediator = make_mediator(policy=policy)
        mediator.add_application(kmeans)
        mediator.set_power_cap(90.0)
        assert bool(built) is builds


class TestArrival:
    def test_arrival_charges_overhead(self, make_mediator, kmeans, sssp):
        """Fig. 11a: an arrival re-plans at once. The paper's ~800 ms
        settling window is not modelled, so what is checked is cap adherence
        across the arrival plus the newcomer's progress."""
        mediator = make_mediator()
        mediator.add_application(sssp)
        mediator.run_for(2.0)
        mediator.add_application(kmeans)
        mediator.run_for(0.4)
        mediator.run_for(2.0)
        assert mediator.normalized_throughput("kmeans", since_s=2.5) > 0.0
        for record in mediator.timeline:
            assert record.wall_w <= 100.0 + 1e-6

    def test_incumbent_power_shrinks_on_arrival(self, make_mediator, kmeans, sssp):
        """Fig. 11a: SSSP's allocation drops when X264 arrives."""
        mediator = make_mediator()
        mediator.add_application(sssp)
        mediator.run_for(2.0)
        before = mediator.timeline[-1].app_power_w["sssp"]
        mediator.add_application(kmeans)
        mediator.run_for(2.0)
        after = mediator.timeline[-1].app_power_w["sssp"]
        assert after < before


class TestDeparture:
    def test_completion_releases_power_to_survivor(self, make_mediator, kmeans, pagerank):
        """Fig. 11b: the survivor scales up when its peer departs."""
        short = pagerank.with_total_work(12.0)
        mediator = make_mediator()
        mediator.add_application(kmeans.with_total_work(float("inf")))
        mediator.add_application(short)
        mediator.run_for(1.5)
        assert "pagerank" in mediator.managed_apps()  # still co-located
        capped = mediator.timeline[-1].app_power_w["kmeans"]
        mediator.run_for(20.0)  # pagerank finishes in here
        assert "pagerank" not in mediator.managed_apps()
        final = mediator.timeline[-1].app_power_w["kmeans"]
        assert final > capped
        handle = mediator.finished_handle("pagerank")
        assert handle.completed

    def test_forced_removal(self, make_mediator, kmeans, pagerank):
        mediator = make_mediator()
        mediator.add_application(kmeans)
        mediator.add_application(pagerank)
        mediator.run_for(1.0)
        mediator.remove_application("pagerank")
        assert mediator.managed_apps() == ["kmeans"]
        mediator.run_for(1.0)

    def test_unknown_finished_handle_rejected(self, make_mediator, kmeans):
        mediator = make_mediator()
        mediator.add_application(kmeans)
        with pytest.raises(SchedulingError):
            mediator.finished_handle("ghost")


class TestPhaseChanges:
    def test_e4_fires_on_profile_swap(self, make_mediator):
        """A phase boundary changes true power; the Accountant notices."""
        base = CATALOG["kmeans"].with_total_work(30.0)
        lighter = WorkloadProfile.from_dict(
            {**base.to_dict(), "activity_factor": 0.5, "dvfs_sensitivity": 0.3}
        )
        phased = PhasedProfile([(0.0, base), (0.3, lighter)])
        mediator = make_mediator(cap=110.0)
        mediator.add_application(base, phased=phased)
        mediator.run_for(15.0)
        kinds = [type(e).__name__ for e in mediator.accountant.event_log]
        assert "PhaseChangeEvent" in kinds

    def test_cap_held_across_phase_change(self, make_mediator):
        base = CATALOG["stream"].with_total_work(40.0)
        hungrier = WorkloadProfile.from_dict(
            {**base.to_dict(), "mem_gb_per_work": 1.0}
        )
        phased = PhasedProfile([(0.0, base), (0.4, hungrier)])
        mediator = make_mediator(cap=95.0)
        mediator.add_application(base, phased=phased)
        mediator.run_for(12.0)
        for record in mediator.timeline:
            assert record.wall_w <= 95.0 + 1e-6


class TestLearningPath:
    def test_learned_estimates_stay_within_cap(self, make_mediator, kmeans, stream):
        """The RAPL guard must absorb estimation error."""
        mediator = make_mediator(use_oracle_estimates=False, seed=3)
        mediator.add_application(stream)
        mediator.add_application(kmeans)
        mediator.run_for(3.0)
        for record in mediator.timeline:
            assert record.wall_w <= 100.0 + 1e-6

    def test_learned_allocation_is_competitive(self, make_mediator, kmeans, stream):
        learned = make_mediator(use_oracle_estimates=False, seed=3)
        oracle = make_mediator(use_oracle_estimates=True)
        for m in (learned, oracle):
            m.add_application(stream)
            m.add_application(kmeans)
            m.run_for(5.0)
        assert learned.server_objective() > 0.85 * oracle.server_objective()


class TestSteadyFold:
    """One fast segment of ``k`` ticks leaves exactly what ``k`` ``step()``
    calls leave: the mediator's own fold (sensor readback, watchdog, retry
    loop, timeline, trace, metrics) together with every component's."""

    @pytest.mark.parametrize(
        ("policy", "cap", "k"),
        [
            ("app+res-aware", 100.0, 1),
            ("app+res-aware", 100.0, 3),
            ("app+res-aware", 100.0, 400),
            ("app+res+esd-aware", 80.0, 1),
            ("app+res+esd-aware", 80.0, 3),
        ],
    )
    def test_a_segment_equals_k_steps(
        self, monkeypatch, config, kmeans, pagerank, policy, cap, k
    ):
        monkeypatch.setattr(planner, "MIN_FAST_TICKS", 1)
        pair = []
        for bus in (TraceBus(), TraceBus()):
            mediator = PowerMediator(
                SimulatedServer(config, engine="vector"),
                make_policy(policy),
                cap,
                battery=default_battery() if "esd" in policy else None,
                use_oracle_estimates=True,
                trace_bus=bus,
            )
            mediator.add_application(pagerank)
            mediator.add_application(kmeans)
            pair.append(mediator)
        fast, ref = pair
        dt = fast.dt_s
        # Step both until the coordinator can repeat its step k times.
        while not (
            fast.steady_reason() == ""
            and fast.coordinator.steady_step(dt)[0] == ""
            and fast.coordinator.steady_step(dt)[2] >= k
        ):
            fast.step()
            ref.step()
        fast.run_for(k * dt)
        for _ in range(k):
            ref.step()
        assert (fast.fast_path.segments, fast.fast_path.fast_ticks) == (1, k)
        assert fast.state_dict() == ref.state_dict()
        assert fast.trace_bus.events == ref.trace_bus.events
        fast_metrics, ref_metrics = fast.export_metrics(), ref.export_metrics()
        fast_metrics.pop("profile")
        ref_metrics.pop("profile")
        assert fast_metrics == ref_metrics
