"""Vector model equivalence: every quantity, every knob, every profile.

The per-server vector models answer point queries by indexing precomputed
response surfaces. This module pins each surface cell to the scalar model's
answer with ``==`` (no tolerance), across the full 432-knob space and the
whole workload catalog - the exhaustive version of the equivalence contract
the differential suite checks end-to-end.
"""

from __future__ import annotations

import pytest

from repro.core.utility import CandidateSet
from repro.engine import VectorPerformanceModel, VectorPowerModel, validate_engine
from repro.errors import ConfigurationError
from repro.server.config import DEFAULT_SERVER_CONFIG, KnobSetting, ServerConfig
from repro.server.perf_model import PerformanceModel
from repro.server.power_model import PowerModel
from repro.server.server import SimulatedServer
from repro.workloads.catalog import CATALOG

KNOBS = DEFAULT_SERVER_CONFIG.knob_space()


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_every_cell_matches_the_scalar_models(name: str):
    profile = CATALOG[name]
    config = DEFAULT_SERVER_CONFIG
    s_perf = PerformanceModel(config)
    s_power = PowerModel(config, s_perf)
    v_perf = VectorPerformanceModel(config)
    v_power = VectorPowerModel(config, v_perf)
    for knob in KNOBS:
        assert v_perf.compute_rate(profile, knob) == s_perf.compute_rate(
            profile, knob
        )
        assert v_perf.memory_rate(profile, knob) == s_perf.memory_rate(profile, knob)
        assert v_perf.rate(profile, knob) == s_perf.rate(profile, knob)
        assert v_perf.core_utilization(profile, knob) == s_perf.core_utilization(
            profile, knob
        )
        assert v_perf.achieved_bandwidth_gbs(
            profile, knob
        ) == s_perf.achieved_bandwidth_gbs(profile, knob)
        assert v_power.core_power_w(profile, knob) == s_power.core_power_w(
            profile, knob
        )
        assert v_power.dram_power_w(profile, knob) == s_power.dram_power_w(
            profile, knob
        )
        assert v_power.app_power_w(profile, knob) == s_power.app_power_w(
            profile, knob
        )
    assert v_perf.peak_rate(profile) == s_perf.peak_rate(profile)


def test_vector_results_are_python_floats():
    """No np.float64 may leak out: downstream code JSON-serializes these
    values and compares state_dicts with ``==`` against scalar runs."""
    profile = CATALOG["stream"]
    v_perf = VectorPerformanceModel(DEFAULT_SERVER_CONFIG)
    v_power = VectorPowerModel(DEFAULT_SERVER_CONFIG, v_perf)
    knob = KNOBS[17]
    for value in (
        v_perf.rate(profile, knob),
        v_perf.core_utilization(profile, knob),
        v_power.app_power_w(profile, knob),
        v_perf.peak_rate(profile),
    ):
        assert type(value) is float


def test_off_grid_knobs_fall_back_to_the_scalar_path():
    """Point queries off the precomputed grid (other hardware configs built
    ad hoc by callers) answer through the scalar superclass - still exact."""
    profile = CATALOG["kmeans"]
    config = DEFAULT_SERVER_CONFIG
    v_perf = VectorPerformanceModel(config)
    s_perf = PerformanceModel(config)
    off_grid = KnobSetting(1.25, 3, 7.5)
    assert v_perf.rate(profile, off_grid) == s_perf.rate(profile, off_grid)


def test_candidate_set_fast_path_matches_the_scalar_build():
    profile = CATALOG["pagerank"].with_total_work(float("inf"))
    config = DEFAULT_SERVER_CONFIG
    scalar = CandidateSet.from_models(
        profile, config, power_model=PowerModel(config, PerformanceModel(config))
    )
    vector = CandidateSet.from_models(
        profile, config, power_model=VectorPowerModel(config)
    )
    assert vector.knobs == scalar.knobs
    assert vector.power_w.tolist() == scalar.power_w.tolist()
    assert vector.perf.tolist() == scalar.perf.tolist()
    assert vector.perf_nocap == scalar.perf_nocap


def test_surface_cache_shares_grids_but_not_profile_surfaces():
    from dataclasses import replace

    from repro.engine import grid_for

    config = DEFAULT_SERVER_CONFIG
    grid = grid_for(config)
    assert grid is grid_for(ServerConfig())
    stream = CATALOG["stream"]
    a = grid.surface(stream)
    b = grid.surface(stream.with_total_work(50.0))
    assert a is b, "total_work does not change the response surface"
    c = grid.surface(replace(stream, base_rate=stream.base_rate * 0.5))
    assert c is not a


def test_engine_validation_and_server_wiring():
    assert validate_engine("scalar") == "scalar"
    assert validate_engine("vector") == "vector"
    with pytest.raises(ConfigurationError, match="unknown engine"):
        validate_engine("warp")
    server = SimulatedServer(engine="vector")
    assert server.engine == "vector"
    assert isinstance(server._perf, VectorPerformanceModel)
    assert SimulatedServer().engine == "scalar"
    # The engine is construction-time configuration, never state.
    assert "engine" not in server.state_dict()
