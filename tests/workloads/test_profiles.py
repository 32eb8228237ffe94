"""WorkloadProfile: validation, Amdahl math, derivation helpers."""

import pytest

from repro.errors import ConfigurationError
from repro.workloads.profiles import WorkloadProfile, WORKLOAD_CLASSES


def make(**overrides):
    base = dict(
        name="test",
        wclass="graph",
        parallel_fraction=0.5,
        base_rate=1.0,
        dvfs_sensitivity=0.8,
        mem_gb_per_work=0.3,
        activity_factor=0.9,
        total_work=100.0,
    )
    base.update(overrides)
    return WorkloadProfile(**base)


class TestValidation:
    def test_valid_profile_constructs(self):
        make()

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make(name="")

    def test_unknown_class_rejected(self):
        with pytest.raises(ConfigurationError):
            make(wclass="quantum")

    @pytest.mark.parametrize("value", [-0.1, 1.1])
    def test_parallel_fraction_bounds(self, value):
        with pytest.raises(ConfigurationError):
            make(parallel_fraction=value)

    def test_nonpositive_base_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            make(base_rate=0.0)

    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_dvfs_sensitivity_bounds(self, value):
        with pytest.raises(ConfigurationError):
            make(dvfs_sensitivity=value)

    def test_negative_traffic_rejected(self):
        with pytest.raises(ConfigurationError):
            make(mem_gb_per_work=-1.0)

    @pytest.mark.parametrize("value", [0.0, 1.5])
    def test_activity_factor_bounds(self, value):
        with pytest.raises(ConfigurationError):
            make(activity_factor=value)

    def test_nonpositive_work_rejected(self):
        with pytest.raises(ConfigurationError):
            make(total_work=0.0)

    def test_all_classes_accepted(self):
        for wclass in WORKLOAD_CLASSES:
            make(wclass=wclass)


class TestAmdahl:
    def test_one_core_is_unity(self):
        assert make(parallel_fraction=0.7).amdahl_speedup(1) == 1.0

    def test_fully_serial_never_speeds_up(self):
        p = make(parallel_fraction=0.0)
        assert p.amdahl_speedup(6) == 1.0

    def test_fully_parallel_is_linear(self):
        p = make(parallel_fraction=1.0)
        assert p.amdahl_speedup(4) == pytest.approx(4.0)

    def test_speedup_monotone_in_cores(self):
        p = make(parallel_fraction=0.8)
        speeds = [p.amdahl_speedup(n) for n in range(1, 7)]
        assert speeds == sorted(speeds)

    def test_zero_cores_rejected(self):
        with pytest.raises(ConfigurationError):
            make().amdahl_speedup(0)


class TestDerivation:
    def test_with_total_work(self):
        derived = make().with_total_work(5.0)
        assert derived.total_work == 5.0
        assert derived.name == "test"

    def test_with_infinite_work(self):
        assert make().with_total_work(float("inf")).total_work == float("inf")

    def test_dict_roundtrip(self):
        profile = make()
        assert WorkloadProfile.from_dict(profile.to_dict()) == profile

    def test_from_dict_ignores_unknown_keys(self):
        data = make().to_dict()
        data["mystery"] = 42
        WorkloadProfile.from_dict(data)
