"""The exhaustive corpus against the scalar-model loop it replaced.

``build_exhaustive_corpus`` reads each app's row from the cached response
surfaces of :mod:`repro.engine.surface` and stores it with one bulk insert.
:func:`reference_corpus` below is the per-knob loop it replaced: one scalar
``app_power_w`` and one ``rate`` call per knob, one ``observe`` per cell.
The two must agree exactly - ``np.array_equal``, not ``allclose`` - on every
input below, because the learned golden traces hash whatever the corpus
holds.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.utility import CandidateSet
from repro.engine.surface import grid_for
from repro.learning.crossval import build_exhaustive_corpus
from repro.learning.matrix import PreferenceMatrix
from repro.server.config import DEFAULT_SERVER_CONFIG, ServerConfig
from repro.server.perf_model import PerformanceModel
from repro.server.power_model import PowerModel
from repro.workloads.catalog import CATALOG
from repro.workloads.profiles import WorkloadProfile


def reference_corpus(
    config: ServerConfig, profiles: list[WorkloadProfile]
) -> PreferenceMatrix:
    """The scalar-model corpus: two model calls and one observe per knob."""
    perf_model = PerformanceModel(config)
    power_model = PowerModel(config, perf_model)
    corpus = PreferenceMatrix(config)
    for profile in profiles:
        corpus.add_app(profile.name)
        for knob in config.knob_space():
            power = power_model.app_power_w(profile, knob)
            perf = perf_model.rate(profile, knob)
            corpus.observe(profile.name, knob, power_w=power, perf=perf)
    return corpus


CONFIGS = {"default": DEFAULT_SERVER_CONFIG}

KMEANS = CATALOG["kmeans"]
#: Profiles that reach the model branches the catalog does not.
EDGE_PROFILES = {
    # mem_gb_per_work == 0: the infinite memory-rate branch.
    "compute-only": replace(KMEANS, name="compute-only", mem_gb_per_work=0.0),
    "serial": replace(KMEANS, name="serial", parallel_fraction=0.0),
    "fully-parallel": replace(KMEANS, name="fully-parallel", parallel_fraction=1.0),
    "kmeans-scaled": replace(KMEANS, base_rate=KMEANS.base_rate * 1.7),
}


def assert_same_corpus(got: PreferenceMatrix, want: PreferenceMatrix) -> None:
    assert got.apps == want.apps
    assert got.columns == want.columns
    assert np.array_equal(got.power_rows(), want.power_rows())
    assert np.array_equal(got.perf_rows(), want.perf_rows())


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_catalog_corpus_equals_the_scalar_loop(config_name):
    config = CONFIGS[config_name]
    profiles = list(CATALOG.values())
    assert_same_corpus(
        build_exhaustive_corpus(config, profiles), reference_corpus(config, profiles)
    )


@pytest.mark.parametrize("profile_name", sorted(EDGE_PROFILES))
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_edge_profile_corpus_equals_the_scalar_loop(config_name, profile_name):
    config = CONFIGS[config_name]
    profiles = [EDGE_PROFILES[profile_name]]
    assert_same_corpus(
        build_exhaustive_corpus(config, profiles), reference_corpus(config, profiles)
    )


def test_profiles_sharing_a_surface_get_separate_rows():
    """Equal numeric fields, different names: one cached surface, two rows."""
    twin = replace(KMEANS, name="kmeans-twin")
    config = DEFAULT_SERVER_CONFIG
    assert grid_for(config).surface(twin) is grid_for(config).surface(KMEANS)
    corpus = build_exhaustive_corpus(config, [KMEANS, twin])
    assert corpus.apps == ["kmeans", "kmeans-twin"]
    assert_same_corpus(corpus, reference_corpus(config, [KMEANS, twin]))


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_grid_enumerates_the_knob_space(config_name):
    config = CONFIGS[config_name]
    assert grid_for(config).knobs == tuple(config.knob_space())
    assert PreferenceMatrix(config).columns == config.knob_space()


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_from_estimates_normalizes_by_the_estimate_at_the_max_knob(config_name):
    config = CONFIGS[config_name]
    knobs = config.knob_space()
    n = len(knobs)
    perf = np.random.default_rng(3).permutation(n) + 1.0
    estimated = CandidateSet.from_estimates("app", config, np.ones(n), perf)
    assert estimated.knobs == tuple(knobs)
    assert estimated.perf_nocap == perf[knobs.index(config.max_knob)]
