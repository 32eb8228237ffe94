"""Dynamic workloads: arrival schedules and phased profiles."""

import pytest

from repro.errors import ConfigurationError
from repro.workloads.catalog import CATALOG
from repro.workloads.generator import ArrivalEvent, ArrivalSchedule, PhasedProfile
from repro.workloads.profiles import WorkloadProfile


class TestArrivalEvent:
    def test_valid_event(self, kmeans):
        ArrivalEvent(time_s=1.0, profile=kmeans)

    def test_negative_time_rejected(self, kmeans):
        with pytest.raises(ConfigurationError):
            ArrivalEvent(time_s=-1.0, profile=kmeans)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_time_rejected(self, kmeans, bad):
        with pytest.raises(ConfigurationError):
            ArrivalEvent(time_s=bad, profile=kmeans)


class TestArrivalSchedule:
    def test_events_sorted_on_construction(self, kmeans, stream):
        schedule = ArrivalSchedule(
            [
                ArrivalEvent(5.0, kmeans),
                ArrivalEvent(1.0, stream),
            ]
        )
        assert [e.time_s for e in schedule.events] == [1.0, 5.0]

    def test_pop_due_in_order(self, kmeans, stream):
        schedule = ArrivalSchedule(
            [ArrivalEvent(1.0, stream), ArrivalEvent(5.0, kmeans)]
        )
        assert [e.profile.name for e in schedule.pop_due(2.0)] == ["stream"]
        assert [e.profile.name for e in schedule.pop_due(10.0)] == ["kmeans"]
        assert schedule.exhausted

    def test_pop_due_does_not_redeliver(self, kmeans):
        schedule = ArrivalSchedule([ArrivalEvent(1.0, kmeans)])
        schedule.pop_due(2.0)
        assert schedule.pop_due(3.0) == []

    def test_next_time(self, kmeans):
        schedule = ArrivalSchedule([ArrivalEvent(3.0, kmeans)])
        assert schedule.next_time_s() == 3.0
        schedule.pop_due(4.0)
        assert schedule.next_time_s() is None


class TestPoissonGeneration:
    def test_deterministic_for_seed(self):
        a = ArrivalSchedule.poisson(rate_per_s=0.1, horizon_s=100.0, seed=5)
        b = ArrivalSchedule.poisson(rate_per_s=0.1, horizon_s=100.0, seed=5)
        assert [e.time_s for e in a.events] == [e.time_s for e in b.events]

    def test_rate_roughly_respected(self):
        schedule = ArrivalSchedule.poisson(rate_per_s=0.5, horizon_s=2000.0, seed=1)
        assert 800 <= len(schedule) <= 1200

    def test_events_within_horizon(self):
        schedule = ArrivalSchedule.poisson(rate_per_s=0.2, horizon_s=50.0, seed=2)
        assert all(0 < e.time_s < 50.0 for e in schedule.events)

    def test_unique_suffixes(self):
        schedule = ArrivalSchedule.poisson(rate_per_s=0.5, horizon_s=100.0, seed=3)
        names = [e.profile.name for e in schedule.events]
        assert len(names) == len(set(names))

    @pytest.mark.parametrize(
        "bad", [0.0, -0.5, float("nan"), float("inf"), float("-inf")]
    )
    def test_invalid_rate_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            ArrivalSchedule.poisson(rate_per_s=bad, horizon_s=10.0)

    @pytest.mark.parametrize("bad", [0.0, -10.0, float("nan"), float("inf")])
    def test_invalid_horizon_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            ArrivalSchedule.poisson(rate_per_s=0.1, horizon_s=bad)


class TestPhasedProfile:
    def _variant(self, base: WorkloadProfile, mem: float) -> WorkloadProfile:
        return WorkloadProfile.from_dict({**base.to_dict(), "mem_gb_per_work": mem})

    def test_segment_lookup(self, kmeans):
        heavy = self._variant(kmeans, 1.0)
        phased = PhasedProfile([(0.0, kmeans), (0.5, heavy)])
        assert phased.profile_at(0.2) is kmeans
        assert phased.profile_at(0.5) is heavy
        assert phased.profile_at(0.9) is heavy

    def test_single_segment(self, kmeans):
        phased = PhasedProfile([(0.0, kmeans)])
        assert phased.segments == [(0.0, kmeans)]
        assert phased.profile_at(1.0) is kmeans

    def test_must_start_at_zero(self, kmeans):
        with pytest.raises(ConfigurationError):
            PhasedProfile([(0.1, kmeans)])

    def test_thresholds_strictly_increase(self, kmeans):
        heavy = self._variant(kmeans, 1.0)
        with pytest.raises(ConfigurationError):
            PhasedProfile([(0.0, kmeans), (0.0, heavy)])

    def test_segments_share_name(self, kmeans, stream):
        with pytest.raises(ConfigurationError):
            PhasedProfile([(0.0, kmeans), (0.5, stream)])

    def test_segments_share_total_work(self, kmeans):
        other = kmeans.with_total_work(kmeans.total_work * 2)
        with pytest.raises(ConfigurationError):
            PhasedProfile([(0.0, kmeans), (0.5, other)])

    def test_progress_out_of_range_rejected(self, kmeans):
        phased = PhasedProfile([(0.0, kmeans)])
        with pytest.raises(ConfigurationError):
            phased.profile_at(1.5)
