"""The exhaustive corpus against the scalar-model loop it replaced.

``build_exhaustive_corpus`` reads each app's row from the cached response
surfaces of :mod:`repro.engine.surface` and stores it with one bulk insert.
:func:`reference_corpus` below is the per-knob loop it replaced: one scalar
``app_power_w`` and one ``rate`` call per knob, noise drawn knob by knob
(power first, then perf), one ``observe`` per cell. The two must agree
exactly - ``np.array_equal``, not ``allclose`` - on every input below,
because the learned golden traces hash whatever the corpus holds.
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
    config: ServerConfig,
    profiles: list[WorkloadProfile],
    *,
    power_noise_std_w: float = 0.0,
    perf_noise_relative_std: float = 0.0,
    seed: int = 0,
) -> PreferenceMatrix:
    """The scalar-model corpus: two model calls and one observe per knob."""
    perf_model = PerformanceModel(config)
    power_model = PowerModel(config, perf_model)
    rng = np.random.default_rng(seed)
    corpus = PreferenceMatrix(config)
    for profile in profiles:
        corpus.add_app(profile.name)
        for knob in config.knob_space():
            power = power_model.app_power_w(profile, knob)
            perf = perf_model.rate(profile, knob)
            if power_noise_std_w > 0:
                power = max(0.0, power + float(rng.normal(0.0, power_noise_std_w)))
            if perf_noise_relative_std > 0:
                perf = max(0.0, perf * (1.0 + float(rng.normal(0.0, perf_noise_relative_std))))
            corpus.observe(profile.name, knob, power_w=power, perf=perf)
    return corpus


#: 1.0-2.4 GHz in 0.2 steps x 1-4 cores x 3-12 W DRAM in 1.5 W steps.
NARROW = ServerConfig(
    freq_min_ghz=1.0,
    freq_max_ghz=2.4,
    freq_step_ghz=0.2,
    cores_per_socket=4,
    cores_max=4,
    dram_power_min_w=3.0,
    dram_power_max_w=12.0,
    dram_power_step_w=1.5,
)
CONFIGS = {"default": DEFAULT_SERVER_CONFIG, "narrow": NARROW}

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


def test_narrow_config_has_224_knobs():
    assert len(NARROW.knob_space()) == 8 * 4 * 7 == 224


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


@pytest.mark.parametrize("seed", [0, 7, 31])
@pytest.mark.parametrize(
    "noise",
    [
        {"power_noise_std_w": 0.5},
        {"perf_noise_relative_std": 0.05},
        {"power_noise_std_w": 0.5, "perf_noise_relative_std": 0.05},
    ],
    ids=["power", "perf", "both"],
)
def test_noisy_corpus_equals_the_scalar_loop(noise, seed):
    config = DEFAULT_SERVER_CONFIG
    profiles = list(CATALOG.values())
    got = build_exhaustive_corpus(config, profiles, seed=seed, **noise)
    assert_same_corpus(got, reference_corpus(config, profiles, seed=seed, **noise))
    # Noise moves exactly the planes it was asked for.
    clean = build_exhaustive_corpus(config, profiles)
    power_moved = not np.array_equal(got.power_rows(), clean.power_rows())
    perf_moved = not np.array_equal(got.perf_rows(), clean.perf_rows())
    assert power_moved == ("power_noise_std_w" in noise)
    assert perf_moved == ("perf_noise_relative_std" in noise)


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
