"""Knob controller: validated actuation of f/n/m and suspend/resume."""

import pytest

from repro.errors import KnobError, SchedulingError
from repro.server.config import KnobSetting
from repro.server.knobs import KnobController
from repro.server.rapl import RaplInterface
from repro.server.topology import ServerTopology


@pytest.fixture()
def setup(config):
    topo = ServerTopology(config)
    rapl = RaplInterface(config.sockets)
    knobs = KnobController(config, topo, rapl)
    topo.admit("a")
    topo.admit("b")
    return topo, rapl, knobs


class TestAttachment:
    def test_attach_defaults_to_max_knob(self, setup, config):
        _, _, knobs = setup
        knobs.attach("a")
        assert knobs.knob_of("a") == config.max_knob

    def test_attach_with_initial(self, setup):
        _, _, knobs = setup
        initial = KnobSetting(1.5, 3, 6.0)
        knobs.attach("a", initial)
        assert knobs.knob_of("a") == initial

    def test_attach_requires_admission(self, setup):
        _, _, knobs = setup
        with pytest.raises(SchedulingError):
            knobs.attach("ghost")

    def test_double_attach_rejected(self, setup):
        _, _, knobs = setup
        knobs.attach("a")
        with pytest.raises(SchedulingError):
            knobs.attach("a")

    def test_detach(self, setup):
        _, _, knobs = setup
        knobs.attach("a")
        knobs.detach("a")
        assert knobs.attached() == []


class TestActuation:
    def test_off_grid_setting_rejected(self, setup):
        _, _, knobs = setup
        knobs.attach("a")
        with pytest.raises(KnobError):
            knobs.set_knob("a", KnobSetting(1.55, 6, 10.0))

    def test_knob_just_off_a_grid_step_validates(self, setup, config):
        # Not a grid point, so the exact lookup misses; the config's 1e-9
        # tolerance still accepts it.
        _, _, knobs = setup
        knobs.attach("a")
        step = KnobSetting(config.frequencies_ghz[2], 6, config.dram_powers_w[-1])
        near = KnobSetting(step.freq_ghz + 1e-12, 6, step.dram_power_w - 1e-12)
        assert step in config.knob_space() and near not in config.knob_space()
        assert knobs.set_knob("a", near)
        assert knobs.knob_of("a") == near

    @pytest.mark.parametrize(
        "knob",
        [KnobSetting(1.55, 6, 10.0), KnobSetting(2.0, 7, 10.0), KnobSetting(2.0, 6, 9.5)],
    )
    def test_off_grid_knob_raises_the_config_error(self, setup, config, knob):
        _, _, knobs = setup
        knobs.attach("a")
        with pytest.raises(KnobError) as expected:
            config.validate_knob(knob)
        with pytest.raises(KnobError) as raised:
            knobs.set_knob("a", knob)
        assert str(raised.value) == str(expected.value)

    def test_cores_beyond_group_rejected(self, setup, config):
        topo, rapl, _ = setup
        narrow_topo = ServerTopology(config)
        narrow_topo.admit("n", width=3)
        narrow = KnobController(config, narrow_topo, RaplInterface(config.sockets))
        narrow.attach("n", KnobSetting(2.0, 3, 10.0))
        with pytest.raises(KnobError):
            narrow.set_knob("n", KnobSetting(2.0, 4, 10.0))


class TestDramLimitMirroring:
    def test_attach_pushes_dram_limit(self, setup):
        topo, rapl, knobs = setup
        knobs.attach("a")
        socket = topo.group_of("a").socket
        assert rapl.domain(f"dram-{socket}").power_limit_w == 10.0

    def test_set_dram_updates_limit(self, setup):
        topo, rapl, knobs = setup
        knobs.attach("a")
        knobs.set_knob("a", KnobSetting(2.0, 6, 4.0))
        socket = topo.group_of("a").socket
        assert rapl.domain(f"dram-{socket}").power_limit_w == 4.0

    def test_shared_socket_sums_limits(self, config):
        topo = ServerTopology(config)
        rapl = RaplInterface(config.sockets)
        knobs = KnobController(config, topo, rapl)
        a = topo.admit("a", width=3)
        topo.admit("filler", width=6)  # occupy the other socket
        topo.admit("c", width=3)  # shares with a
        knobs.attach("a", KnobSetting(2.0, 3, 6.0))
        knobs.attach("c", KnobSetting(2.0, 3, 4.0))
        assert rapl.domain(f"dram-{a.socket}").power_limit_w == 10.0


class TestSuspendResume:
    def test_suspend_removes_from_running(self, setup):
        _, _, knobs = setup
        knobs.attach("a")
        knobs.attach("b")
        knobs.suspend("a")
        assert knobs.running_apps() == ["b"]
        assert knobs.is_suspended("a")

    def test_resume_restores(self, setup):
        _, _, knobs = setup
        knobs.attach("a")
        knobs.suspend("a")
        knobs.resume("a")
        assert knobs.running_apps() == ["a"]

    def test_suspend_is_idempotent(self, setup):
        _, _, knobs = setup
        knobs.attach("a")
        knobs.suspend("a")
        knobs.suspend("a")
        assert knobs.is_suspended("a")

    def test_unknown_app_rejected(self, setup):
        _, _, knobs = setup
        with pytest.raises(SchedulingError):
            knobs.suspend("ghost")
