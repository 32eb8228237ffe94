"""Topology: core-group reservations and placement."""

import pytest

from repro.errors import ConfigurationError, SchedulingError
from repro.server.config import ServerConfig
from repro.server.topology import ServerTopology


@pytest.fixture()
def topo(config):
    return ServerTopology(config)


class TestAdmission:
    def test_first_app_gets_a_full_group(self, topo, config):
        group = topo.admit("a")
        assert group.width == config.cores_max
        assert group.dedicated_dimm

    def test_two_apps_land_on_different_sockets(self, topo):
        a = topo.admit("a")
        b = topo.admit("b")
        assert a.socket != b.socket
        assert a.dedicated_dimm and b.dedicated_dimm

    def test_groups_are_disjoint(self, topo):
        a = topo.admit("a")
        b = topo.admit("b")
        assert not set(a.cores) & set(b.cores)

    def test_duplicate_admit_rejected(self, topo):
        topo.admit("a")
        with pytest.raises(SchedulingError):
            topo.admit("a")

    def test_third_full_width_app_rejected(self, topo):
        topo.admit("a")
        topo.admit("b")
        with pytest.raises(SchedulingError):
            topo.admit("c")  # no socket has 6 free cores

    def test_narrow_groups_share_a_socket(self, topo):
        topo.admit("a", width=3)
        topo.admit("b", width=3)
        c = topo.admit("c", width=3)
        d = topo.admit("d", width=3)
        assert not topo.free_cores_on_socket(0) and not topo.free_cores_on_socket(1)
        assert not c.dedicated_dimm or not d.dedicated_dimm

    def test_socket_sharing_clears_dedicated_dimm(self, topo):
        a = topo.admit("a", width=3)
        assert a.dedicated_dimm
        topo.admit("b", width=6)  # other socket
        topo.admit("c", width=3)  # must share with a
        assert not topo.group_of("a").dedicated_dimm
        assert not topo.group_of("c").dedicated_dimm
        assert topo.group_of("b").dedicated_dimm

    def test_invalid_width_rejected(self, topo):
        with pytest.raises(ConfigurationError):
            topo.admit("a", width=0)
        with pytest.raises(ConfigurationError):
            topo.admit("b", width=7)


class TestRelease:
    def test_release_frees_cores(self, topo, config):
        topo.admit("a")
        topo.release("a")
        free = sum(len(topo.free_cores_on_socket(s)) for s in range(config.sockets))
        assert free == config.total_cores

    def test_release_restores_dedication(self, topo):
        topo.admit("a", width=3)
        topo.admit("b", width=6)
        topo.admit("c", width=3)
        topo.release("c")
        assert topo.group_of("a").dedicated_dimm

    def test_release_unknown_rejected(self, topo):
        with pytest.raises(SchedulingError):
            topo.release("ghost")

    def test_readmission_after_release(self, topo):
        topo.admit("a")
        topo.admit("b")
        topo.release("a")
        topo.admit("c")  # reuses the freed socket


class TestQueries:
    def test_apps_on_socket(self, topo):
        a = topo.admit("a")
        assert topo.apps_on_socket(a.socket) == ["a"]

    def test_free_cores_on_bad_socket(self, topo):
        with pytest.raises(ConfigurationError):
            topo.free_cores_on_socket(5)
