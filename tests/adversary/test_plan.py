"""Adversary schedules: spec validation, ordering, and serialization."""

import pytest

from repro.adversary.plan import (
    ADVERSARY_KINDS,
    AdversarySchedule,
    AdversarySpec,
    default_adversary_schedule,
)
from repro.errors import AdversaryError


def spec(**overrides) -> AdversarySpec:
    base = dict(app="a", kind="probe", start_s=1.0, duration_s=5.0, magnitude=6.0)
    base.update(overrides)
    return AdversarySpec(**base)


class TestSpecValidation:
    def test_valid_spec_round_trips(self):
        s = spec(period_s=2.0, burst_s=0.5, seed=7)
        assert AdversarySpec.from_dict(s.to_dict()) == s

    def test_empty_app_rejected(self):
        with pytest.raises(AdversaryError, match="non-empty app name"):
            spec(app="")

    def test_unknown_kind_rejected(self):
        with pytest.raises(AdversaryError, match="unknown adversary kind"):
            spec(kind="ddos")

    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("start_s", -1.0, "start must be non-negative"),
            ("duration_s", 0.0, "duration must be positive"),
            ("magnitude", 0.0, "magnitude must be positive"),
            ("magnitude", 60.0, "beyond any single"),
            ("period_s", 0.0, "period must be positive"),
            ("burst_s", 0.0, "burst length must be positive"),
        ],
    )
    def test_bad_field_rejected(self, field, value, match):
        with pytest.raises(AdversaryError, match=match):
            spec(**{field: value})

    def test_probe_burst_longer_than_period_rejected(self):
        with pytest.raises(AdversaryError, match="exceeds its period"):
            spec(period_s=1.0, burst_s=2.0)

    def test_implausible_inflation_rejected(self):
        with pytest.raises(AdversaryError, match="implausible"):
            spec(kind="inflate", magnitude=11.0)

    def test_window_arithmetic(self):
        s = spec(start_s=2.0, duration_s=3.0)
        assert s.end_s == 5.0
        assert not s.active_at(1.99)
        assert s.active_at(2.0)
        assert s.active_at(4.99)
        assert not s.active_at(5.0)

    def test_from_dict_names_the_json_path(self):
        with pytest.raises(AdversaryError, match=r"adversaries\[2\]"):
            AdversarySpec.from_dict(
                {"app": "a", "kind": "probe", "start_s": 0, "duration_s": 1,
                 "magnitude": -1},
                where="adversaries[2]",
            )

    def test_from_dict_missing_field_names_it(self):
        with pytest.raises(AdversaryError, match="kind"):
            AdversarySpec.from_dict({"app": "a"})


class TestSchedule:
    def test_specs_sorted_by_start(self):
        late = spec(app="b", start_s=9.0)
        early = spec(app="a", start_s=1.0)
        sched = AdversarySchedule(specs=(late, early))
        assert sched.specs == (early, late)
        assert sched.apps() == ["a", "b"]

    def test_one_strategy_per_tenant(self):
        with pytest.raises(AdversaryError, match="one strategy"):
            AdversarySchedule(specs=(spec(), spec(kind="spike")))

    def test_spec_for(self):
        sched = AdversarySchedule(specs=(spec(app="a"),))
        assert sched.spec_for("a").app == "a"
        assert sched.spec_for("b") is None


class TestDefaultSchedule:
    @pytest.mark.parametrize("kind", ADVERSARY_KINDS)
    def test_every_kind_has_a_default(self, kind):
        sched = default_adversary_schedule("victim", kind=kind, start_s=3.0, seed=5)
        assert len(sched) == 1
        (s,) = sched.specs
        assert s.kind == kind and s.app == "victim" and s.start_s == 3.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(AdversaryError, match="unknown adversary kind"):
            default_adversary_schedule("victim", kind="nope")
