"""Lead-Acid battery: SoC dynamics, limits, efficiency, accounting."""

import pytest

from repro.errors import BatteryError, ConfigurationError
from repro.esd.battery import LeadAcidBattery


def make(**overrides):
    params = dict(capacity_j=1000.0, efficiency=0.8, max_charge_w=50.0, max_discharge_w=60.0)
    params.update(overrides)
    return LeadAcidBattery(**params)


class TestConstruction:
    def test_defaults(self):
        battery = make()
        assert battery.soc == 0.0
        assert battery.stored_j == 0.0

    def test_initial_soc(self):
        assert make(initial_soc=0.5).stored_j == 500.0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            make(capacity_j=0.0)

    @pytest.mark.parametrize("eff", [0.0, 1.1])
    def test_invalid_efficiency_rejected(self, eff):
        with pytest.raises(ConfigurationError):
            make(efficiency=eff)

    def test_invalid_reserve_rejected(self):
        with pytest.raises(ConfigurationError):
            make(reserve_fraction=1.0)

    def test_initial_soc_below_reserve_rejected(self):
        with pytest.raises(ConfigurationError):
            make(reserve_fraction=0.3, initial_soc=0.1)


class TestCharging:
    def test_efficiency_applies_on_charge(self):
        battery = make(efficiency=0.8)
        drawn = battery.charge(50.0, 2.0)
        assert drawn == 50.0
        assert battery.stored_j == pytest.approx(0.8 * 50.0 * 2.0)

    def test_charge_clips_at_capacity(self):
        battery = make(initial_soc=0.99)
        drawn = battery.charge(50.0, 10.0)
        assert battery.stored_j == pytest.approx(1000.0)
        assert drawn < 50.0  # the wall only supplied what fit

    def test_full_battery_draws_nothing(self):
        battery = make(initial_soc=1.0)
        assert battery.charge(50.0, 1.0) == 0.0

    def test_charge_above_limit_rejected(self):
        with pytest.raises(BatteryError):
            make().charge(51.0, 1.0)

    def test_negative_charge_rejected(self):
        with pytest.raises(BatteryError):
            make().charge(-1.0, 1.0)

    def test_admissible_charge_clamps(self):
        assert make().admissible_charge_w(100.0) == 50.0
        assert make().admissible_charge_w(20.0) == 20.0


class TestDischarging:
    def test_discharge_delivers_requested(self):
        battery = make(initial_soc=0.5)
        delivered = battery.discharge(40.0, 2.0)
        assert delivered == 40.0
        assert battery.stored_j == pytest.approx(500.0 - 80.0)

    def test_no_efficiency_loss_on_discharge(self):
        """Round-trip loss is booked once, at charge time."""
        battery = make(initial_soc=0.5)
        battery.discharge(10.0, 1.0)
        assert battery.stored_j == pytest.approx(490.0)

    def test_discharge_clips_at_empty(self):
        battery = make(initial_soc=0.01)  # 10 J
        delivered = battery.discharge(60.0, 1.0)
        assert delivered == pytest.approx(10.0)
        assert battery.stored_j == pytest.approx(0.0)

    def test_discharge_above_limit_rejected(self):
        with pytest.raises(BatteryError):
            make(initial_soc=1.0).discharge(61.0, 1.0)

    def test_reserve_floor_protected(self):
        battery = make(reserve_fraction=0.2, initial_soc=0.3)
        delivered = battery.discharge(60.0, 10.0)
        assert delivered * 10.0 == pytest.approx(100.0)  # only above reserve
        assert battery.soc == pytest.approx(0.2)

    def test_admissible_discharge_energy_limited(self):
        battery = make(initial_soc=0.05)  # 50 J usable
        assert battery.admissible_discharge_w(60.0, 10.0) == pytest.approx(5.0)


class TestRoundTrip:
    def test_round_trip_efficiency(self):
        battery = make(efficiency=0.7)
        battery.charge(50.0, 10.0)  # banks 350 J
        total = 0.0
        while battery.usable_j > 1e-9:
            total += battery.discharge(battery.admissible_discharge_w(60.0, 1.0), 1.0)
        assert total == pytest.approx(0.7 * 500.0, rel=1e-6)


class TestStats:
    def test_equivalent_cycles(self):
        battery = make(efficiency=1.0)
        battery.charge(50.0, 20.0)  # full
        battery.discharge(50.0, 20.0)  # empty: one full cycle
        assert battery.stats.equivalent_cycles == pytest.approx(1.0)

    def test_totals_tracked(self):
        battery = make(efficiency=0.8)
        battery.charge(50.0, 1.0)
        stats = battery.stats
        assert stats.total_charged_j == pytest.approx(50.0)
        assert stats.total_stored_j == pytest.approx(40.0)

    def test_headroom(self):
        battery = make(initial_soc=0.25)
        assert battery.headroom_j == pytest.approx(750.0)

    def test_invalid_dt_rejected(self):
        with pytest.raises(BatteryError):
            make().charge(10.0, 0.0)
        with pytest.raises(BatteryError):
            make(initial_soc=1.0).discharge(10.0, -1.0)


class TestSteadyFolds:
    """A fold leaves exactly what ``k`` scalar calls leave, float for float."""

    @pytest.mark.parametrize("k", [1, 3, 997])
    def test_fold_charge_equals_k_charges(self, k):
        fast, ref = (make(capacity_j=1e6, efficiency=0.7, initial_soc=0.1) for _ in "ab")
        reason, drawn_w, ticks = fast.steady_charge(37.3, 0.1)
        assert reason == "" and ticks >= k
        socs = fast.fold_charge(37.3, 0.1, k)
        expected = []
        for _ in range(k):
            assert ref.charge(37.3, 0.1) == drawn_w
            expected.append(ref.soc)
        assert socs == expected
        assert fast.state_dict() == ref.state_dict()

    @pytest.mark.parametrize("k", [1, 3, 997])
    def test_fold_discharge_equals_k_discharges(self, k):
        fast, ref = (make(capacity_j=1e6, initial_soc=0.9) for _ in "ab")
        reason, delivered_w, ticks = fast.steady_discharge(41.7, 0.1)
        assert reason == "" and ticks >= k
        socs = fast.fold_discharge(41.7, 0.1, k)
        expected = []
        for _ in range(k):
            assert ref.discharge(41.7, 0.1) == delivered_w
            expected.append(ref.soc)
        assert socs == expected
        assert fast.state_dict() == ref.state_dict()

    def test_steady_queries_name_the_clip_and_bank_nothing_when_full(self):
        assert make(initial_soc=0.9999).steady_charge(50.0, 1.0)[0] == "battery-clip"
        assert make(initial_soc=0.0001).steady_discharge(50.0, 1.0)[0] == "battery-clip"
        full = make(initial_soc=1.0)
        assert full.steady_charge(50.0, 1.0) == ("", 0.0, float("inf"))
        before = full.state_dict()
        assert full.fold_charge(50.0, 1.0, 3) == [1.0] * 3
        assert full.state_dict() == before
