"""Golden-trace regression: the three pinned Table II runs (one per
coordination regime) must replay to their recorded content hashes - once
under the scalar reference engine and once under the vector fast path,
whose specs record the *same* hashes (the engines are bit-identical).
Each regime is pinned twice more with learning on (oracle estimates off),
so the corpus -> ALS -> fold-in path is covered by a committed hash too.

When a change intentionally moves behaviour, regenerate the file and review
its diff::

    PYTHONPATH=src python -m repro.observability.golden \
        tests/golden/golden_traces.json --write
"""

from pathlib import Path

import pytest

from repro.observability.golden import GoldenSpec, load_specs, run_spec, save_specs

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "golden_traces.json"

SPECS = load_specs(GOLDEN)


def test_golden_file_pins_all_three_regimes():
    for engine in ("scalar", "vector"):
        for oracle in (True, False):
            regimes = {
                spec.regime
                for spec in SPECS
                if spec.engine == engine and spec.use_oracle_estimates == oracle
            }
            route = "oracle" if oracle else "learned"
            assert regimes == {"space", "time", "esd"}, (
                f"the {engine} engine must pin all three Table II regimes "
                f"on the {route} route"
            )
    assert all(spec.trace_hash for spec in SPECS), (
        "golden file has unrecorded specs; run the regen command in this "
        "module's docstring"
    )


def test_vector_specs_record_the_scalar_hashes():
    """The equivalence contract, expressed in the golden file itself: every
    vector spec pins the exact hash its scalar twin pins. A learned spec and
    its oracle twin differ only in ``use_oracle_estimates``, so that field is
    part of the key."""

    def twin_key(s: GoldenSpec) -> tuple:
        return (s.mix_id, s.policy, s.p_cap_w, s.seed, s.use_oracle_estimates)

    scalar = {twin_key(s): s.trace_hash for s in SPECS if s.engine == "scalar"}
    assert len(scalar) == sum(s.engine == "scalar" for s in SPECS), (
        "two scalar specs share a twin key"
    )
    vector = [s for s in SPECS if s.engine == "vector"]
    assert vector, "golden file lost its vector specs"
    for spec in vector:
        assert spec.trace_hash == scalar[twin_key(spec)], (
            f"{spec.name}: vector hash diverged from its scalar twin - the "
            "engines are no longer bit-identical"
        )


@pytest.mark.parametrize("spec", SPECS, ids=[s.name for s in SPECS])
def test_golden_trace_replays_to_recorded_hash(spec: GoldenSpec):
    outcome = run_spec(spec)
    assert outcome.dominant_mode == spec.regime, (
        f"{spec.name} settled into {outcome.dominant_mode!r} "
        f"(modes {outcome.modes}), expected the {spec.regime!r} regime"
    )
    assert outcome.trace_hash == spec.trace_hash, (
        f"{spec.name}: trace hash changed - behaviour drifted somewhere in "
        "the mediation stack. If intentional, regenerate the golden file "
        "(see module docstring) and review the mode-residency diff."
    )
    assert outcome.modes == spec.modes


def test_golden_hashes_are_invariant_to_the_defense_layer():
    """The recorded hashes predate the TrustScorer; an honest run must hash
    identically whether the defenses are armed (the default) or disabled -
    the trust layer may only observe until someone misbehaves."""
    from repro.core.trust import DefenseConfig

    spec = SPECS[0]
    disarmed = run_spec(spec, defense=DefenseConfig(enabled=False))
    assert disarmed.trace_hash == spec.trace_hash


def test_specs_round_trip_through_save(tmp_path):
    path = tmp_path / "golden.json"
    save_specs(path, SPECS)
    assert load_specs(path) == SPECS
