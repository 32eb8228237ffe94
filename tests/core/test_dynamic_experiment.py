"""run_dynamic_experiment: Poisson arrival streams against one server."""

import pytest

from repro.errors import ConfigurationError
from repro.core.simulation import run_dynamic_experiment
from repro.workloads.catalog import CATALOG
from repro.workloads.generator import ArrivalEvent, ArrivalSchedule
from repro.workloads.profiles import WorkloadProfile


def short(name, work, suffix=""):
    base = CATALOG[name].with_total_work(work)
    if suffix:
        return WorkloadProfile.from_dict({**base.to_dict(), "name": f"{name}{suffix}"})
    return base


class TestDynamicExperiment:
    def test_arrivals_and_completions(self):
        schedule = ArrivalSchedule(
            [
                ArrivalEvent(0.0, short("kmeans", 20.0)),
                ArrivalEvent(5.0, short("x264", 20.0)),
            ]
        )
        result = run_dynamic_experiment(
            schedule,
            "app+res-aware",
            100.0,
            horizon_s=60.0,
            use_oracle_estimates=True,
        )
        assert result.admitted == ("kmeans", "x264")
        assert set(result.completed) == {"kmeans", "x264"}
        assert result.rejected == ()
        assert result.events["ArrivalEvent"] == 2
        assert result.events["DepartureEvent"] == 2
        assert result.mean_normalized_throughput > 0.3

    def test_overflow_arrivals_rejected(self):
        schedule = ArrivalSchedule(
            [
                ArrivalEvent(0.0, short("kmeans", 1e6)),
                ArrivalEvent(1.0, short("stream", 1e6)),
                ArrivalEvent(2.0, short("sssp", 1e6)),  # no third core group
            ]
        )
        result = run_dynamic_experiment(
            schedule,
            "util-unaware",
            110.0,
            horizon_s=10.0,
        )
        assert result.rejected == ("sssp",)

    def test_idle_gaps_are_skipped(self):
        """A long quiet period before the first arrival must not crash or
        stall the driver."""
        schedule = ArrivalSchedule([ArrivalEvent(50.0, short("kmeans", 10.0))])
        result = run_dynamic_experiment(
            schedule,
            "app+res-aware",
            100.0,
            horizon_s=70.0,
            use_oracle_estimates=True,
        )
        assert result.admitted == ("kmeans",)
        assert result.completed == ("kmeans",)

    def test_invalid_horizon_rejected(self):
        with pytest.raises(ConfigurationError):
            run_dynamic_experiment(
                ArrivalSchedule([]), "util-unaware", 100.0, horizon_s=0.0
            )

    def test_poisson_stream_end_to_end(self):
        schedule = ArrivalSchedule.poisson(
            rate_per_s=0.05,
            horizon_s=100.0,
            seed=9,
        )
        # Shrink everyone's work so departures actually happen.
        schedule = ArrivalSchedule(
            [
                ArrivalEvent(e.time_s, e.profile.with_total_work(30.0))
                for e in schedule.events
            ]
        )
        result = run_dynamic_experiment(
            schedule,
            "app+res-aware",
            100.0,
            horizon_s=120.0,
            use_oracle_estimates=True,
        )
        assert len(result.admitted) + len(result.rejected) == len(schedule)
        if result.admitted:
            assert result.mean_normalized_throughput > 0.0
