"""The discrete-time engine: admission, ticks, progress, completion."""

import pytest

from repro.errors import ConfigurationError, SchedulingError, SimulationError
from repro.server.config import ServerConfig
from repro.server.server import SimulatedServer


class TestAdmission:
    def test_admit_registers_everywhere(self, server, kmeans):
        server.admit(kmeans)
        assert server.applications() == ["kmeans"]
        assert "kmeans" in server.heartbeats.registered()
        assert server.knobs.knob_of("kmeans") == server.config.max_knob

    def test_duplicate_admission_rejected(self, server, kmeans):
        server.admit(kmeans)
        with pytest.raises(SchedulingError):
            server.admit(kmeans)

    def test_admit_suspended(self, server, kmeans):
        server.admit(kmeans, start_suspended=True)
        assert server.active_applications() == []

    def test_third_app_rolls_back_cleanly(self, server, kmeans, stream, pagerank):
        server.admit(kmeans)
        server.admit(stream)
        with pytest.raises(SchedulingError):
            server.admit(pagerank)
        # The failed admit must leave no residue anywhere.
        assert server.applications() == ["kmeans", "stream"]
        assert "pagerank" not in server.heartbeats.registered()

    def test_remove_returns_handle(self, server, kmeans):
        server.admit(kmeans)
        handle = server.remove("kmeans")
        assert handle.name == "kmeans"
        assert server.applications() == []

    def test_readmission_after_remove(self, server, kmeans):
        server.admit(kmeans)
        server.remove("kmeans")
        server.admit(kmeans)


class TestTick:
    def test_progress_matches_rate(self, server, kmeans):
        server.admit(kmeans)
        result = server.tick(1.0)
        expected = server.perf_model.rate(kmeans, server.config.max_knob)
        assert result.progressed["kmeans"] == pytest.approx(expected)

    def test_clock_advances(self, server, kmeans):
        server.admit(kmeans)
        server.tick(0.5)
        server.tick(0.25)
        assert server.now_s == pytest.approx(0.75)

    def test_suspended_app_makes_no_progress(self, server, kmeans):
        server.admit(kmeans, start_suspended=True)
        result = server.tick(1.0)
        assert result.progressed == {}

    def test_wall_power_matches_model(self, server, kmeans, stream):
        server.admit(kmeans)
        server.admit(stream)
        result = server.tick(0.1)
        expected = server.power_model.server_breakdown(
            {
                "kmeans": (kmeans, server.config.max_knob),
                "stream": (stream, server.config.max_knob),
            }
        ).wall_w
        assert result.breakdown.wall_w == pytest.approx(expected)

    def test_rapl_psys_tracks_wall(self, server, kmeans):
        server.admit(kmeans)
        result = server.tick(0.1)
        assert server.rapl.domain("psys").last_power_w == pytest.approx(
            result.breakdown.wall_w
        )

    def test_heartbeats_follow_progress(self, server, kmeans):
        server.admit(kmeans)
        for _ in range(20):
            server.tick(0.1)
        rate = server.heartbeats.heart_rate("kmeans")
        assert rate == pytest.approx(
            server.perf_model.rate(kmeans, server.config.max_knob), rel=0.05
        )

    def test_nonpositive_tick_rejected(self, server):
        with pytest.raises(ConfigurationError):
            server.tick(0.0)


class TestCompletion:
    def test_app_completes_when_work_done(self, server, kmeans):
        short = kmeans.with_total_work(1.0)
        server.admit(short)
        rate = server.perf_model.rate(short, server.config.max_knob)
        completed = []
        for _ in range(int(2.0 / (0.1 * rate)) + 10):
            result = server.tick(0.1)
            completed.extend(result.completed)
            if completed:
                break
        assert completed == ["kmeans"]
        handle = server.handle_of("kmeans")
        assert handle.completed
        assert handle.progress_fraction == 1.0

    def test_completed_app_stops_drawing_power(self, server, kmeans):
        server.admit(kmeans.with_total_work(0.01))
        server.tick(1.0)  # finishes immediately
        result = server.tick(0.1)
        assert result.breakdown.app_w == {}
        assert result.breakdown.wall_w == pytest.approx(70.0)  # idle + cm

    def test_work_never_overshoots_total(self, server, kmeans):
        server.admit(kmeans.with_total_work(1.0))
        for _ in range(50):
            server.tick(0.1)
        assert server.handle_of("kmeans").work_done == pytest.approx(1.0)


class TestSuspendResumePenalty:
    def test_resume_charges_cache_refill(self, server, kmeans):
        server.admit(kmeans)
        server.tick(0.1)
        server.suspend("kmeans")
        server.tick(0.1)
        server.resume("kmeans")
        result = server.tick(0.1)
        full = server.perf_model.rate(kmeans, server.config.max_knob) * 0.1
        expected = full * (1.0 - server.config.resume_penalty_s / 0.1)
        assert result.progressed["kmeans"] == pytest.approx(expected)

    def test_resume_without_suspend_is_free(self, server, kmeans):
        server.admit(kmeans)
        server.resume("kmeans")
        assert server.handle_of("kmeans").resumes == 0

    def test_resume_counter(self, server, kmeans):
        server.admit(kmeans)
        for _ in range(3):
            server.suspend("kmeans")
            server.resume("kmeans")
        assert server.handle_of("kmeans").resumes == 3


class TestDeepSleep:
    def test_deep_sleep_drops_to_idle(self, server, kmeans):
        server.admit(kmeans, start_suspended=True)
        result = server.tick(0.1, deep_sleep=True)
        assert result.breakdown.wall_w == pytest.approx(server.config.p_idle_w)

    def test_deep_sleep_with_active_apps_rejected(self, server, kmeans):
        server.admit(kmeans)
        with pytest.raises(SimulationError):
            server.tick(0.1, deep_sleep=True)

    def test_wake_penalty_reduces_first_tick_work(self, server, kmeans):
        server.admit(kmeans, start_suspended=True)
        server.tick(0.1, deep_sleep=True)
        server.resume("kmeans")
        result = server.tick(0.1)
        full = server.perf_model.rate(kmeans, server.config.max_knob) * 0.1
        # Both the PC6 wake latency and the resume refill are charged.
        assert result.progressed["kmeans"] < full


class TestSteadyFold:
    """``fold_ticks`` leaves exactly what ``k`` steady ``tick`` calls leave."""

    def steady_pair(self, config, kmeans, stream):
        servers = []
        for _ in range(2):
            server = SimulatedServer(config, engine="vector")
            server.admit(kmeans)
            server.admit(stream, start_suspended=True)
            server.tick(0.1)
            servers.append(server)
        return servers

    @pytest.mark.parametrize("k", [1, 3, 500])
    def test_fold_ticks_equals_k_ticks(self, config, kmeans, stream, k):
        fast, ref = self.steady_pair(config, kmeans, stream)
        assert fast.steady_tick_reason() == ""
        work, breakdown, powers = fast.steady_tick(0.1, 0.0, 0.0, False)
        assert fast.clean_ticks(work, k) == k
        times = [fast.now_s]
        for _ in range(k):
            times.append(times[-1] + 0.1)
        psys = fast.fold_ticks(0.1, times, work, powers)
        expected = []
        for _ in range(k):
            result = ref.tick(0.1)
            assert result.breakdown == breakdown and result.progressed == work
            expected.append(ref.rapl.read_energy_j("psys"))
        assert psys == expected
        assert fast.state_dict() == ref.state_dict()

    def test_clean_ticks_stop_before_the_completion_tick(self, config, kmeans):
        server = SimulatedServer(config)
        server.admit(kmeans.with_total_work(50.0))
        work, _, _ = server.steady_tick(0.1, 0.0, 0.0, False)
        clean = server.clean_ticks(work, 10_000)
        for _ in range(clean):
            assert not server.tick(0.1).completed
        assert server.tick(0.1).completed == ("kmeans",)

    def test_resume_debt_on_a_running_app_is_not_steady(self, server, kmeans):
        server.admit(kmeans, start_suspended=True)
        server.tick(0.1)
        assert server.steady_tick_reason() == ""  # frozen while suspended
        server.resume("kmeans")
        assert server.steady_tick_reason() == "resume-debt"
