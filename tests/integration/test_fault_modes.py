"""End-to-end fault scenarios: the acceptance contract of the fault layer.

* Under the default fault plan the mediated run never exceeds the cap for
  more than one consecutive tick and every episode recovers.
* Fault injection is seed-deterministic: same plan + same seed => identical
  timeline.
* An E2 arrival during degraded telemetry is admitted, calibrated
  conservatively, and causes no breach.
* The ESD policy degrades from R4 to the battery-free fallback during a
  battery outage and restores afterwards.
* The emergency floor-throttle forces the wall under the cap within a tick.
"""

from repro.core.coordinator import Coordinator
from repro.core.mediator import PowerMediator
from repro.core.policies import make_policy
from repro.core.resilience import DEGRADED_GUARD_BAND
from repro.core.simulation import default_battery, run_mix_experiment
from repro.faults import FaultPlan, FaultSpec, default_fault_plan
from repro.server.server import SimulatedServer
from repro.workloads.catalog import CATALOG

CAP_W = 80.0


def faulty_mediator(policy_name, faults, *, cap_w=CAP_W, seed=3, battery=None):
    server = SimulatedServer(seed=seed)
    mediator = PowerMediator(
        server,
        make_policy(policy_name),
        cap_w,
        dt_s=0.1,
        seed=seed,
        battery=battery,
        faults=faults,
    )
    for name in ("kmeans", "x264"):
        mediator.add_application(CATALOG[name].with_total_work(float("inf")))
    return mediator


class TestDefaultPlanAcceptance:
    def test_cap_never_breached_two_ticks_running(self):
        result = run_mix_experiment(
            [CATALOG["kmeans"], CATALOG["x264"]],
            "app+res-aware",
            CAP_W,
            duration_s=50.0,
            warmup_s=5.0,
            faults=default_fault_plan(seed=1),
            seed=2,
        )
        stats = result.fault_stats
        assert stats is not None
        # verify_cap_invariant (inside run_mix_experiment) already raised if
        # any breach went unflagged; here we bound consecutive flags.
        assert stats.breach_ticks <= len(stats.episodes) + 1
        assert all(not ep.open for ep in stats.episodes)
        assert stats.crashes == 1
        assert result.server_throughput > 0.0

    def test_every_fault_class_journaled(self):
        mediator = faulty_mediator("app+res-aware", default_fault_plan(seed=1))
        mediator.run_for(50.0)
        kinds = {ep.kind for ep in mediator.fault_stats.episodes}
        assert {"app", "rapl", "telemetry"} <= kinds
        events = mediator.accountant.event_log
        fault_kinds = {e.kind for e in events if type(e).__name__ == "FaultEvent"}
        assert "battery" in fault_kinds  # windowed even without an ESD


class TestDeterminism:
    def test_same_plan_and_seed_identical_timeline(self):
        def timeline():
            mediator = faulty_mediator(
                "app+res-aware", default_fault_plan(seed=7), seed=3
            )
            mediator.run_for(50.0)
            return mediator.timeline

        first, second = timeline(), timeline()
        assert len(first) == len(second)
        assert first == second

    def test_noise_seed_changes_observations(self):
        def observed(seed):
            plan = FaultPlan(
                specs=(
                    FaultSpec(
                        kind="telemetry", mode="noise", start_s=1.0,
                        duration_s=3.0, magnitude=2.0,
                    ),
                ),
                seed=seed,
            )
            mediator = faulty_mediator("app+res-aware", plan, seed=3)
            mediator.run_for(5.0)
            return [r.observed_wall_w for r in mediator.timeline]

        assert observed(1) != observed(2)


class TestArrivalDuringDegradedTelemetry:
    def test_e2_admitted_without_breach(self):
        # Cap 90 leaves a 20 W dynamic budget: enough for both apps to fit
        # the TIME rotation (at 80 the policy rightly excludes x264).
        cap_w = 90.0
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="telemetry", mode="drop", start_s=5.0, duration_s=8.0),
            )
        )
        server = SimulatedServer(seed=3)
        mediator = PowerMediator(
            server, make_policy("app+res-aware"), cap_w, dt_s=0.1, seed=3, faults=plan
        )
        mediator.add_application(CATALOG["kmeans"].with_total_work(float("inf")))
        mediator.run_for(8.0)
        assert mediator.degraded_telemetry  # watchdog tripped mid-blackout
        mediator.add_application(CATALOG["x264"].with_total_work(float("inf")))
        # Long enough to cover a full rotation period after recovery (each
        # replan restarts the rotation at slot 0).
        mediator.run_for(22.0)
        assert "x264" in mediator.managed_apps()
        assert mediator.fault_stats.breach_ticks == 0
        assert all(r.wall_w <= cap_w + 1e-6 for r in mediator.timeline)
        # Degraded mode ended once samples came back.
        assert not mediator.degraded_telemetry
        # x264 actually runs after the calibration pause (TIME rotation may
        # park it on any individual tick, so scan the tail of the timeline).
        assert any(
            r.app_power_w.get("x264", 0.0) > 0.0
            for r in mediator.timeline
            if r.time_s > 8.0
        )

    def test_degraded_mode_plans_against_reduced_cap(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="telemetry", mode="drop", start_s=2.0, duration_s=6.0),
            )
        )
        mediator = faulty_mediator("app+res-aware", plan)
        mediator.run_for(10.0)
        degraded = [r for r in mediator.timeline if r.degraded]
        assert degraded
        guard = DEGRADED_GUARD_BAND
        reduced = CAP_W * (1.0 - guard)
        # While degraded the plan targets the reduced cap; the wall tracks it.
        assert all(r.wall_w <= CAP_W + 1e-6 for r in degraded)
        assert min(r.wall_w for r in degraded) <= reduced + 1e-6


class TestEsdDegradation:
    def test_battery_outage_degrades_r4_and_restores(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    kind="battery", mode="outage", start_s=15.0, duration_s=10.0
                ),
            )
        )
        battery = default_battery()
        mediator = faulty_mediator(
            "app+res+esd-aware", plan, battery=battery, seed=3
        )
        mediator.run_for(40.0)
        modes = [(r.time_s, r.mode.value) for r in mediator.timeline]
        during = {m for t, m in modes if 15.5 <= t < 25.0}
        after = {m for t, m in modes if t >= 30.0}
        assert "esd" not in during  # R4 unavailable while the battery is out
        assert "esd" in after  # restored once the outage cleared
        assert mediator.fault_stats.breach_ticks == 0
        assert all(r.wall_w <= CAP_W + 1e-6 for r in mediator.timeline)


class TestEmergencyThrottle:
    def test_floor_throttle_fits_under_cap_within_one_tick(self):
        server = SimulatedServer(seed=0)
        for name in ("kmeans", "x264"):
            server.admit(CATALOG[name].with_total_work(float("inf")))
            server.knobs.set_knob(name, server.config.max_knob)
        hot = server.tick(0.1)
        assert hot.breakdown.wall_w > CAP_W  # genuinely breaching
        coordinator = Coordinator(server)
        floored, suspended = coordinator.emergency_throttle(CAP_W)
        assert floored or suspended
        calm = server.tick(0.1)
        assert calm.breakdown.wall_w <= CAP_W + 1e-6
