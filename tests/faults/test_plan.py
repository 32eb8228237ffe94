"""Fault plans: validation, ordering, JSON round-trips."""

import pytest

from repro.errors import FaultError
from repro.faults import FAULT_MODES, SCOPED_KINDS, FaultPlan, FaultSpec, default_fault_plan


class TestSpecValidation:
    def test_valid_windowed_spec(self):
        spec = FaultSpec(kind="rapl", mode="drop", start_s=5.0, duration_s=2.0)
        assert not spec.instantaneous
        assert spec.end_s == 7.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError):
            FaultSpec(kind="quantum", mode="drop", start_s=0.0, duration_s=1.0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(FaultError):
            FaultSpec(kind="rapl", mode="outage", start_s=0.0, duration_s=1.0)

    def test_negative_start_rejected(self):
        with pytest.raises(FaultError):
            FaultSpec(kind="rapl", mode="drop", start_s=-1.0, duration_s=1.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(FaultError):
            FaultSpec(kind="rapl", mode="drop", start_s=0.0, duration_s=-1.0)

    def test_windowed_fault_needs_duration(self):
        with pytest.raises(FaultError):
            FaultSpec(kind="telemetry", mode="drop", start_s=0.0, duration_s=0.0)

    def test_instant_fault_needs_no_duration(self):
        spec = FaultSpec(kind="app", mode="crash", start_s=3.0)
        assert spec.instantaneous
        assert spec.end_s == 3.0

    def test_derate_magnitude_bounds(self):
        with pytest.raises(FaultError):
            FaultSpec(
                kind="battery", mode="derate", start_s=0.0, duration_s=1.0,
                magnitude=0.0,
            )
        with pytest.raises(FaultError):
            FaultSpec(
                kind="battery", mode="derate", start_s=0.0, duration_s=1.0,
                magnitude=1.0,
            )

    def test_fade_magnitude_bounds(self):
        with pytest.raises(FaultError):
            FaultSpec(kind="battery", mode="fade", start_s=0.0, magnitude=1.5)

    def test_noise_needs_positive_magnitude(self):
        with pytest.raises(FaultError):
            FaultSpec(kind="telemetry", mode="noise", start_s=0.0, duration_s=1.0)


class TestPlan:
    def test_specs_sorted_by_start(self):
        late = FaultSpec(kind="app", mode="hang", start_s=9.0, duration_s=1.0)
        early = FaultSpec(kind="rapl", mode="drop", start_s=1.0, duration_s=1.0)
        plan = FaultPlan(specs=(late, early))
        assert plan.specs == (early, late)

    def test_len_and_kinds(self):
        plan = default_fault_plan()
        assert len(plan) == 6
        assert {spec.kind for spec in plan.specs} == {"app", "rapl", "telemetry", "battery"}

    def test_default_plan_exercises_every_kind(self):
        # Every kind except the scoped ones: node/pdu/rack outages are
        # cluster- and hierarchy-scope while the default plan drives a
        # single server's substrate.
        kinds = {spec.kind for spec in default_fault_plan().specs}
        assert kinds == set(FAULT_MODES) - SCOPED_KINDS


class TestSerialization:
    def test_json_roundtrip(self):
        plan = default_fault_plan(seed=11)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_load_from_file(self, tmp_path):
        plan = default_fault_plan(seed=3)
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert FaultPlan.load(str(path)) == plan

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FaultError):
            FaultPlan.load(str(tmp_path / "absent.json"))

    def test_invalid_json_raises(self):
        with pytest.raises(FaultError):
            FaultPlan.from_json("{not json")

    def test_wrong_shape_raises(self):
        with pytest.raises(FaultError):
            FaultPlan.from_json('{"seed": 0}')

    def test_spec_missing_field_raises(self):
        with pytest.raises(FaultError):
            FaultPlan.from_json('{"faults": [{"kind": "rapl"}]}')

    def test_seed_defaults_to_zero(self):
        plan = FaultPlan.from_json('{"faults": []}')
        assert plan.seed == 0 and len(plan) == 0
