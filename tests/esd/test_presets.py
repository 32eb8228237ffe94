"""Battery chemistry presets and their effect on the ESD scheme."""

import pytest

from repro.errors import ConfigurationError
from repro.esd.presets import BATTERY_PRESETS, make_battery


class TestPresets:
    def test_all_presets_construct(self):
        for name in BATTERY_PRESETS:
            battery = make_battery(name)
            assert battery.capacity_j > 0

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            make_battery("flux-capacitor")

    def test_lead_acid_matches_paper_regime(self):
        battery = make_battery("lead-acid")
        assert battery.efficiency == pytest.approx(0.70)
        assert battery.max_discharge_w >= 40.0  # covers the 80 W overshoot

    def test_li_ion_dominates_lead_acid(self):
        lead = make_battery("lead-acid")
        li = make_battery("li-ion")
        assert li.efficiency > lead.efficiency
        assert li.max_discharge_w > lead.max_discharge_w

    def test_ultracap_is_power_dense_energy_poor(self):
        cap = make_battery("ultracap")
        lead = make_battery("lead-acid")
        assert cap.max_discharge_w > lead.max_discharge_w
        assert cap.capacity_j < lead.capacity_j / 10

    def test_backup_reserve_floor(self):
        battery = make_battery("lead-acid-backup-reserve")
        assert battery.usable_j == 0.0  # starts at the reserve floor
        assert battery.soc == pytest.approx(0.5)


class TestPresetsEndToEnd:
    def test_chemistry_orders_esd_throughput(self, config):
        """Li-ion's better efficiency buys a longer ON fraction (Eq. 5),
        so the 80 W scheme does more work on it than on Lead-Acid."""
        from repro.core.simulation import run_mix_experiment
        from repro.workloads.mixes import get_mix

        results = {}
        for preset in ("lead-acid", "li-ion"):
            result = run_mix_experiment(
                list(get_mix(10).profiles()),
                "app+res+esd-aware",
                80.0,
                config=config,
                duration_s=40.0,
                warmup_s=15.0,
                battery=make_battery(preset),
                use_oracle_estimates=True,
            )
            results[preset] = result.server_throughput
        assert results["li-ion"] > results["lead-acid"]
