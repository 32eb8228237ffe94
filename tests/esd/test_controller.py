"""ESD controller: Eq. (5) duty cycles and the tick protocol."""

import pytest

from repro.errors import ConfigurationError, PowerBudgetError
from repro.esd.battery import LeadAcidBattery
from repro.esd.controller import DutyCycle, EsdController, Phase, compute_duty_cycle


class TestEquationFive:
    def test_paper_80w_regime_is_60_40(self):
        """Section IV-B: Lead-Acid gives a 60-40 OFF-ON split at 80 W."""
        cycle = compute_duty_cycle(
            p_idle_w=50.0,
            p_cm_w=20.0,
            sum_app_w=40.0,
            p_cap_w=80.0,
            efficiency=0.70,
            period_s=10.0,
        )
        # Eq. (5): off/on = (50+20+40-80) / (0.7 * (80-50)) = 30/21
        assert cycle.off_s / cycle.on_s == pytest.approx(30.0 / 21.0)
        assert cycle.on_fraction == pytest.approx(21.0 / 51.0)
        assert 0.55 <= cycle.off_s / cycle.period_s <= 0.65  # "60-40"

    def test_energy_balance_is_sustainable(self):
        """Per period, banked energy equals spent energy - the schedule can
        repeat forever."""
        cycle = compute_duty_cycle(
            p_idle_w=50.0,
            p_cm_w=20.0,
            sum_app_w=40.0,
            p_cap_w=80.0,
            efficiency=0.7,
            period_s=10.0,
        )
        banked = 0.7 * cycle.charge_w * cycle.off_s
        spent = cycle.discharge_w * cycle.on_s
        assert banked == pytest.approx(spent)

    def test_loose_cap_needs_no_esd(self):
        cycle = compute_duty_cycle(
            p_idle_w=50.0,
            p_cm_w=20.0,
            sum_app_w=20.0,
            p_cap_w=100.0,
            efficiency=0.7,
            period_s=10.0,
        )
        assert cycle.off_s == 0.0
        assert cycle.on_fraction == 1.0
        assert cycle.discharge_w == 0.0

    def test_cap_below_idle_rejected(self):
        with pytest.raises(PowerBudgetError):
            compute_duty_cycle(
                p_idle_w=50.0,
                p_cm_w=20.0,
                sum_app_w=40.0,
                p_cap_w=49.0,
                efficiency=0.7,
                period_s=10.0,
            )

    def test_paper_70w_fig5_regime(self):
        """Fig. 5: at 70 W the charge headroom is 20 W."""
        cycle = compute_duty_cycle(
            p_idle_w=50.0,
            p_cm_w=20.0,
            sum_app_w=40.0,
            p_cap_w=70.0,
            efficiency=1.0,
            period_s=15.0,
        )
        assert cycle.charge_w == pytest.approx(20.0)
        assert cycle.discharge_w == pytest.approx(40.0)
        # off/on = 40/20 = 2 -> 10 s off, 5 s on per 15 s period.
        assert cycle.off_s == pytest.approx(10.0)
        assert cycle.on_s == pytest.approx(5.0)

    def test_stringency_lengthens_off_phase(self):
        fractions = []
        for cap in (95.0, 85.0, 75.0, 65.0):
            cycle = compute_duty_cycle(
                p_idle_w=50.0,
                p_cm_w=20.0,
                sum_app_w=40.0,
                p_cap_w=cap,
                efficiency=0.7,
                period_s=10.0,
            )
            fractions.append(cycle.on_fraction)
        assert fractions == sorted(fractions, reverse=True)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ConfigurationError):
            compute_duty_cycle(
                p_idle_w=50.0, p_cm_w=20.0, sum_app_w=40.0,
                p_cap_w=80.0, efficiency=0.0, period_s=10.0,
            )
        with pytest.raises(ConfigurationError):
            compute_duty_cycle(
                p_idle_w=50.0, p_cm_w=20.0, sum_app_w=40.0,
                p_cap_w=80.0, efficiency=0.7, period_s=0.0,
            )


@pytest.fixture()
def cycle():
    return compute_duty_cycle(
        p_idle_w=50.0,
        p_cm_w=20.0,
        sum_app_w=40.0,
        p_cap_w=80.0,
        efficiency=0.7,
        period_s=10.0,
    )


@pytest.fixture()
def battery():
    return LeadAcidBattery(
        capacity_j=10_000.0, efficiency=0.7, max_charge_w=50.0, max_discharge_w=60.0
    )


class TestController:
    def test_starts_in_off_phase(self, battery, cycle):
        controller = EsdController(battery, cycle)
        assert controller.phase is Phase.OFF

    def test_banks_during_off(self, battery, cycle):
        controller = EsdController(battery, cycle)
        controller.begin_tick(0.1)
        drawn = controller.bank(0.1)
        assert drawn == pytest.approx(cycle.charge_w)
        assert battery.stored_j > 0

    def test_transitions_to_on_after_off_phase(self, battery, cycle):
        controller = EsdController(battery, cycle)
        elapsed = 0.0
        while elapsed < cycle.off_s:
            assert controller.begin_tick(0.1) is Phase.OFF
            controller.bank(0.1)
            elapsed += 0.1
        assert controller.begin_tick(0.1) is Phase.ON

    def test_on_transition_requires_energy(self, cycle):
        # A battery too small to hold one ON phase never transitions.
        tiny = LeadAcidBattery(
            capacity_j=1.0, efficiency=0.7, max_charge_w=50.0, max_discharge_w=60.0
        )
        controller = EsdController(tiny, cycle)
        for _ in range(200):
            phase = controller.begin_tick(0.1)
            assert phase is Phase.OFF
            controller.bank(0.1)

    def test_boost_covers_required_overshoot(self, battery, cycle):
        controller = EsdController(battery, cycle)
        battery.charge(50.0, 50.0)  # plenty banked
        while controller.begin_tick(0.1) is Phase.OFF:
            controller.bank(0.1)
        delivered = controller.boost(0.1, required_w=35.0)
        assert delivered == pytest.approx(35.0)

    def test_bank_outside_off_rejected(self, battery, cycle):
        controller = EsdController(battery, cycle)
        battery.charge(50.0, 50.0)
        while controller.begin_tick(0.1) is Phase.OFF:
            controller.bank(0.1)
        with pytest.raises(ConfigurationError):
            controller.bank(0.1)

    def test_boost_outside_on_rejected(self, battery, cycle):
        controller = EsdController(battery, cycle)
        with pytest.raises(ConfigurationError):
            controller.boost(0.1)

    def test_full_cycle_returns_to_off(self, battery, cycle):
        controller = EsdController(battery, cycle)
        battery.charge(50.0, 100.0)
        phases = []
        for _ in range(int(cycle.period_s / 0.1) + 2):
            phase = controller.begin_tick(0.1)
            phases.append(phase)
            if phase is Phase.OFF:
                controller.bank(0.1)
            else:
                controller.boost(0.1)
        assert Phase.ON in phases
        assert phases[-1] is Phase.OFF  # wrapped around

    def test_abort_on_phase(self, battery, cycle):
        controller = EsdController(battery, cycle)
        battery.charge(50.0, 100.0)
        while controller.begin_tick(0.1) is Phase.OFF:
            controller.bank(0.1)
        controller.abort_on_phase()
        assert controller.phase is Phase.OFF

    def test_can_boost_tracks_energy(self, battery, cycle):
        controller = EsdController(battery, cycle)
        assert not controller.can_boost(0.1)
        battery.charge(50.0, 10.0)
        assert controller.can_boost(0.1)

    def test_no_off_phase_cycle_stays_on(self, battery):
        cycle = DutyCycle(off_s=0.0, on_s=10.0, charge_w=0.0, discharge_w=0.0)
        controller = EsdController(battery, cycle)
        assert controller.begin_tick(0.1) is Phase.ON
