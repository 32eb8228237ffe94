"""RAPL interface: counters, limits, violations, noise, wraparound."""

import pytest

from repro.errors import ConfigurationError
from repro.server.rapl import (
    ENERGY_WRAP_J,
    RaplDomain,
    RaplInterface,
    energy_delta_j,
)


@pytest.fixture()
def rapl():
    return RaplInterface(sockets=2)


class TestDomains:
    def test_expected_domains_exist(self, rapl):
        assert rapl.domain_names == [
            "dram-0",
            "dram-1",
            "package-0",
            "package-1",
            "psys",
        ]

    def test_unknown_domain_rejected(self, rapl):
        with pytest.raises(ConfigurationError):
            rapl.domain("package-7")

    def test_needs_at_least_one_socket(self):
        with pytest.raises(ConfigurationError):
            RaplInterface(sockets=0)


class TestCounters:
    def test_energy_accumulates(self, rapl):
        rapl.advance({"psys": 100.0}, 2.0)
        rapl.advance({"psys": 50.0}, 1.0)
        assert rapl.read_energy_j("psys") == pytest.approx(250.0)

    def test_counters_are_monotonic(self, rapl):
        values = []
        for _ in range(5):
            rapl.advance({"package-0": 30.0}, 0.1)
            values.append(rapl.read_energy_j("package-0"))
        assert values == sorted(values)

    def test_missing_domains_accumulate_zero(self, rapl):
        rapl.advance({"psys": 100.0}, 1.0)
        assert rapl.read_energy_j("dram-0") == 0.0

    def test_negative_power_rejected(self, rapl):
        with pytest.raises(ConfigurationError):
            rapl.advance({"psys": -1.0}, 1.0)

    def test_time_cannot_go_backwards(self, rapl):
        with pytest.raises(ConfigurationError):
            rapl.advance({"psys": 1.0}, -0.1)


class TestPowerReadings:
    def test_noise_free_reading_is_exact(self, rapl):
        rapl.advance({"psys": 88.0}, 0.1)
        assert rapl.read_power_w("psys") == 88.0

    def test_noisy_readings_vary_but_stay_nonnegative(self):
        noisy = RaplInterface(sockets=1, noise_std_w=5.0, seed=42)
        noisy.advance({"psys": 1.0}, 0.1)
        readings = [noisy.read_power_w("psys") for _ in range(50)]
        assert min(readings) >= 0.0
        assert len(set(readings)) > 1

    def test_noise_is_seeded(self):
        a = RaplInterface(sockets=1, noise_std_w=2.0, seed=7)
        b = RaplInterface(sockets=1, noise_std_w=2.0, seed=7)
        a.advance({"psys": 50.0}, 0.1)
        b.advance({"psys": 50.0}, 0.1)
        assert a.read_power_w("psys") == b.read_power_w("psys")

    def test_negative_noise_std_rejected(self):
        with pytest.raises(ConfigurationError):
            RaplInterface(sockets=1, noise_std_w=-1.0)


class TestLimits:
    def test_set_and_read_limit(self, rapl):
        rapl.set_power_limit("dram-0", 7.0)
        assert rapl.domain("dram-0").power_limit_w == 7.0

    def test_clear_limit(self, rapl):
        rapl.set_power_limit("dram-0", 7.0)
        rapl.set_power_limit("dram-0", None)
        assert rapl.domain("dram-0").power_limit_w is None

    def test_nonpositive_limit_rejected(self, rapl):
        with pytest.raises(ConfigurationError):
            rapl.set_power_limit("dram-0", 0.0)


class TestWraparound:
    """The 32-bit ``energy_uj`` counter wraps ~every 54 s at 80 W; consumers
    must difference with :func:`energy_delta_j`, never raw subtraction."""

    def test_wrap_range_matches_hardware_register(self):
        assert ENERGY_WRAP_J == pytest.approx(2**32 * 1e-6)

    def test_counter_wraps_at_range(self):
        dom = RaplDomain("psys", energy_j=ENERGY_WRAP_J - 10.0)
        dom.advance(30.0, 1.0)  # +30 J -> 10 J past the range -> wraps to 20 J
        assert dom.energy_j == pytest.approx(20.0)

    def test_counter_stays_below_range_under_long_accumulation(self):
        dom = RaplDomain("psys")
        for _ in range(200):
            dom.advance(80.0, 0.5)  # 8 kJ total: crosses the wrap once
        assert 0.0 <= dom.energy_j < ENERGY_WRAP_J

    def test_delta_without_wrap(self):
        assert energy_delta_j(50.0, 20.0) == pytest.approx(30.0)

    def test_delta_across_wrap(self):
        assert energy_delta_j(5.0, ENERGY_WRAP_J - 5.0) == pytest.approx(10.0)

    def test_delta_recovers_true_energy_across_wrap(self):
        dom = RaplDomain("psys", energy_j=ENERGY_WRAP_J - 20.0)
        before = dom.energy_j
        dom.advance(40.0, 1.0)  # +40 J, wraps
        assert dom.energy_j < before  # raw subtraction would go negative
        assert energy_delta_j(dom.energy_j, before) == pytest.approx(40.0)


class TestSteadyFold:
    """``fold_advance`` leaves exactly what ``k`` ``advance`` calls leave."""

    @pytest.mark.parametrize("k", [1, 3, 5000])
    def test_fold_advance_equals_k_advances(self, k):
        fast, ref = RaplInterface(sockets=2), RaplInterface(sockets=2)
        for interface in (fast, ref):
            interface.domain("psys").energy_j = ENERGY_WRAP_J - 7.3  # wraps on the way
            interface.domain("package-1").energy_j = 123.456
        powers = {"psys": 93.7, "package-0": 31.1, "dram-0": 4.2, "package-1": 0.0}
        assert fast.steady_advance(powers)
        psys = fast.fold_advance(powers, 0.1, k)
        expected = []
        for _ in range(k):
            ref.advance(powers, 0.1)
            expected.append(ref.read_energy_j("psys"))
        assert psys == expected
        assert fast.state_dict() == ref.state_dict()

    def test_a_negative_power_is_not_steady(self, rapl):
        assert not rapl.steady_advance({"psys": 80.0, "dram-1": -0.1})
