"""Degraded-mode machinery: watchdog hysteresis, retrier backoff, episode
accounting."""

import pytest

from repro.core.resilience import (
    RECOVERY_THRESHOLD,
    STALE_THRESHOLD,
    ActuationRetrier,
    FaultStats,
    TelemetryWatchdog,
)
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.server.server import SimulatedServer
from repro.workloads.catalog import CATALOG


class TestWatchdog:
    def test_degrades_after_threshold(self):
        wd = TelemetryWatchdog()
        for _ in range(STALE_THRESHOLD - 1):
            assert wd.observe(False) is None
        assert wd.observe(False) == "degraded"
        assert wd.degraded

    def test_single_good_sample_does_not_recover(self):
        wd = TelemetryWatchdog()
        for _ in range(STALE_THRESHOLD):
            wd.observe(False)
        assert wd.degraded
        for _ in range(RECOVERY_THRESHOLD - 1):
            assert wd.observe(True) is None
            assert wd.degraded
        assert wd.observe(True) == "recovered"
        assert not wd.degraded

    def test_flapping_resets_counters(self):
        wd = TelemetryWatchdog()
        for _ in range(STALE_THRESHOLD - 1):
            wd.observe(False)
        wd.observe(True)  # resets the bad streak
        for _ in range(STALE_THRESHOLD - 1):
            wd.observe(False)
        assert not wd.degraded
        assert wd.observe(False) == "degraded"

    def test_transitions_fire_once(self):
        wd = TelemetryWatchdog()
        for _ in range(STALE_THRESHOLD - 1):
            wd.observe(False)
        assert wd.observe(False) == "degraded"
        assert wd.observe(False) is None


class TestFaultStats:
    def test_episode_lifecycle_and_mttr(self):
        stats = FaultStats()
        stats.open_episode("rapl", None, 1.0)
        stats.open_episode("telemetry", None, 2.0)
        stats.close_episode("rapl", None, 4.0)
        stats.close_episode("telemetry", None, 3.0)
        assert stats.mttr_s() == pytest.approx(2.0)  # mean of 3.0 and 1.0

    def test_open_is_idempotent_per_key(self):
        stats = FaultStats()
        stats.open_episode("rapl", "a", 1.0)
        stats.open_episode("rapl", "a", 2.0)
        assert len(stats.episodes) == 1

    def test_close_without_open_is_noop(self):
        stats = FaultStats()
        stats.close_episode("rapl", None, 1.0)
        assert stats.episodes == []

    def test_mttr_none_when_nothing_closed(self):
        stats = FaultStats()
        stats.open_episode("rapl", None, 1.0)
        assert stats.mttr_s() is None


class TestActuationRetrier:
    @pytest.fixture()
    def rig(self):
        """A server whose knob writes fail, plus a retrier watching it."""
        server = SimulatedServer()
        server.admit(CATALOG["kmeans"].with_total_work(float("inf")))
        injector = FaultInjector(
            FaultPlan(
                specs=(
                    FaultSpec(kind="rapl", mode="drop", start_s=0.0, duration_s=60.0),
                )
            ),
            server,
        )
        injector.begin_tick(0.0)
        return server, injector, ActuationRetrier(server.knobs)

    def test_retries_follow_exponential_backoff(self, rig):
        server, _, retrier = rig
        stats = FaultStats()
        assert not server.knobs.set_knob("kmeans", server.config.min_knob)
        retry_ticks = []
        for tick in range(1, 8):
            before = stats.actuation_retries
            retrier.service(stats)
            if stats.actuation_retries > before:
                retry_ticks.append(tick)
        # Adopted at tick 1; first retry one tick later, then doubled gap.
        assert retry_ticks == [2, 4]

    def test_escalates_to_suspension_after_max_attempts(self, rig):
        server, _, retrier = rig
        stats = FaultStats()
        assert not server.knobs.set_knob("kmeans", server.config.min_knob)
        escalated = []
        for _ in range(12):
            _, esc = retrier.service(stats)
            escalated.extend(esc)
            if escalated:
                break
        assert escalated == ["kmeans"]
        assert server.knobs.is_suspended("kmeans")
        assert "kmeans" not in server.knobs.failed_writes()
        assert stats.actuation_escalations == 1

    def test_verified_retry_reported_and_cleared(self, rig):
        server, injector, retrier = rig
        stats = FaultStats()
        assert not server.knobs.set_knob("kmeans", server.config.min_knob)
        retrier.service(stats)  # adopt
        injector.begin_tick(61.0)  # fault clears before the first retry
        verified, escalated = retrier.service(stats)
        assert verified == ["kmeans"] and not escalated
        assert server.knobs.knob_of("kmeans") == server.config.min_knob
        assert retrier.state_dict()["pending"] == {}

    def test_out_of_band_clear_drops_pending(self, rig):
        server, injector, retrier = rig
        stats = FaultStats()
        assert not server.knobs.set_knob("kmeans", server.config.min_knob)
        retrier.service(stats)  # adopt
        injector.begin_tick(61.0)
        # A later direct write verifies, clearing the registry out-of-band.
        assert server.knobs.set_knob("kmeans", server.config.max_knob)
        verified, escalated = retrier.service(stats)
        assert verified == [] and escalated == []
        assert retrier.state_dict()["pending"] == {}

    def test_forget_stops_tracking(self, rig):
        server, _, retrier = rig
        stats = FaultStats()
        assert not server.knobs.set_knob("kmeans", server.config.min_knob)
        retrier.service(stats)
        retrier.forget("kmeans")
        assert retrier.state_dict()["pending"] == {}


class TestSteadyFolds:
    """The idle folds leave exactly what ``k`` healthy scalar ticks leave."""

    @pytest.mark.parametrize("k", [1, 3, 1000])
    def test_fold_fresh_equals_k_fresh_samples(self, k):
        fast, ref = TelemetryWatchdog(), TelemetryWatchdog()
        for watchdog in (fast, ref):
            watchdog.observe(False)
            watchdog.observe(True)
        fast.fold_fresh(k)
        for _ in range(k):
            assert ref.observe(True) is None
        assert fast.state_dict() == ref.state_dict()

    @pytest.mark.parametrize("k", [1, 3, 1000])
    def test_fold_idle_equals_k_idle_services(self, k):
        server = SimulatedServer()
        server.admit(CATALOG["kmeans"].with_total_work(float("inf")))
        fast, ref = ActuationRetrier(server.knobs), ActuationRetrier(server.knobs)
        stats = FaultStats()
        for retrier in (fast, ref):
            retrier.service(stats)
        assert fast.idle
        fast.fold_idle(k)
        for _ in range(k):
            assert ref.service(stats) == ([], [])
        assert fast.state_dict() == ref.state_dict()
