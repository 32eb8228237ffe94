"""Differential testing: the vector engine is pinned to the scalar reference.

The vector fast path promises *bit-identical* behaviour - not "close", not
"within tolerance": the same trace hash, the same metrics, the same final
state tree. This suite enforces that promise three ways:

1. A fixed matrix of >= 25 seeded scenarios spanning every Table II regime:
   all fifteen mixes, every policy, learned and oracle estimation, ESD on
   and off, fault injection, and each adversary kind. Each scenario runs
   once per engine and the whole observable outcome must match exactly.
2. A state-level check: mediators built from the same recipe under each
   engine must end a run with *equal state_dicts* (the engine is
   construction-time configuration, not state).
3. A hypothesis fuzz layer that composes random app subsets, caps,
   policies, seeds, ESD, faults, and adversaries - so the pin does not
   quietly depend on the hand-picked matrix.

Equality here is ``==`` on hashes, floats, and dicts. Any ulp of drift in
any tick flips the trace hash, which is the point.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.adversary.plan import ADVERSARY_KINDS, default_adversary_schedule
from repro.core.simulation import default_battery, run_mix_experiment
from repro.faults.plan import FaultPlan, FaultSpec
from repro.observability.trace import TraceBus, summarize_trace, verify_trace
from repro.persistence.checkpoint import RunRecipe
from repro.workloads.mixes import get_mix


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One seeded run both engines must reproduce identically."""

    name: str
    mix_id: int
    policy: str
    p_cap_w: float
    seed: int
    use_oracle_estimates: bool = True
    esd: bool = False
    faulted: bool = False
    adversary_kind: str | None = None
    duration_s: float = 5.0
    warmup_s: float = 2.0


def _compressed_fault_plan(seed: int = 0) -> FaultPlan:
    """The acceptance plan's fault classes, squeezed into a short run."""
    return FaultPlan(
        specs=(
            FaultSpec(kind="app", mode="hang", start_s=1.0, duration_s=1.0),
            FaultSpec(kind="rapl", mode="drop", start_s=2.2, duration_s=0.8),
            FaultSpec(kind="telemetry", mode="drop", start_s=3.2, duration_s=0.6),
            FaultSpec(
                kind="telemetry", mode="noise", start_s=4.0, duration_s=0.6,
                magnitude=0.8,
            ),
            FaultSpec(kind="battery", mode="outage", start_s=4.8, duration_s=0.8),
        ),
        seed=seed,
    )


def _matrix() -> list[Scenario]:
    scenarios: list[Scenario] = []
    # Every Table II mix, cycling through the paper's policies and a spread
    # of caps; seeds differ per scenario so no two runs share RNG streams.
    policies = ("util-unaware", "app+res-aware", "app+res+esd-aware")
    caps = (70.0, 80.0, 90.0, 100.0)
    for mix_id in range(1, 16):
        scenarios.append(
            Scenario(
                name=f"mix{mix_id:02d}-{policies[mix_id % 3]}",
                mix_id=mix_id,
                policy=policies[mix_id % 3],
                p_cap_w=caps[mix_id % 4],
                seed=mix_id,
            )
        )
    # The learned pipeline (calibration sampling, estimator fit) exercises
    # the CandidateSet fast path plus every noise stream.
    for i, mix_id in enumerate((2, 7, 10)):
        scenarios.append(
            Scenario(
                name=f"mix{mix_id:02d}-learned",
                mix_id=mix_id,
                policy="app+res-aware",
                p_cap_w=85.0,
                seed=100 + i,
                use_oracle_estimates=False,
            )
        )
    # Explicit ESD arms (battery installed even under a non-ESD policy).
    for mix_id, policy in ((5, "app+res-aware"), (10, "app+res+esd-aware")):
        scenarios.append(
            Scenario(
                name=f"mix{mix_id:02d}-esd-{policy}",
                mix_id=mix_id,
                policy=policy,
                p_cap_w=75.0,
                seed=200 + mix_id,
                esd=True,
            )
        )
    # Faulted runs: every fault class fires inside the window.
    for mix_id, policy in ((4, "app+res-aware"), (10, "app+res+esd-aware")):
        scenarios.append(
            Scenario(
                name=f"mix{mix_id:02d}-faulted-{policy}",
                mix_id=mix_id,
                policy=policy,
                p_cap_w=80.0,
                seed=300 + mix_id,
                faulted=True,
                duration_s=6.0,
            )
        )
    # Adversarial runs: one scenario per attack kind, defenses armed.
    for i, kind in enumerate(ADVERSARY_KINDS):
        scenarios.append(
            Scenario(
                name=f"mix01-adversary-{kind}",
                mix_id=1,
                policy="app+res-aware",
                p_cap_w=90.0,
                seed=400 + i,
                adversary_kind=kind,
                duration_s=6.0,
            )
        )
    # Combined regimes: every batched planning phase live in one run - ESD
    # duty cycling (battery flows + deep-sleep residency), defense/trust
    # scoring, an adversary driving it, and optionally the fault classes.
    # These are the scenarios the MediatedFleet segment flush must survive
    # wholesale, so the cross-engine pin covers each phase interacting.
    for i, kind in enumerate(ADVERSARY_KINDS):
        scenarios.append(
            Scenario(
                name=f"mix10-combined-esd-{kind}",
                mix_id=10,
                policy="app+res+esd-aware",
                p_cap_w=78.0,
                seed=500 + i,
                esd=True,
                adversary_kind=kind,
                duration_s=6.0,
            )
        )
    scenarios.append(
        Scenario(
            name="mix05-combined-esd-faulted-adversary",
            mix_id=5,
            policy="app+res+esd-aware",
            p_cap_w=78.0,
            seed=600,
            esd=True,
            faulted=True,
            adversary_kind=ADVERSARY_KINDS[0],
            duration_s=6.0,
        )
    )
    return scenarios


SCENARIOS = _matrix()


def test_matrix_meets_the_acceptance_floor():
    assert len(SCENARIOS) >= 25
    assert any(s.faulted for s in SCENARIOS)
    assert {s.adversary_kind for s in SCENARIOS if s.adversary_kind} == set(
        ADVERSARY_KINDS
    )
    assert any(s.esd for s in SCENARIOS)
    assert any(not s.use_oracle_estimates for s in SCENARIOS)
    # The combined regimes: ESD + defense + adversary in the same run, for
    # every attack kind, plus one with the fault classes layered on top.
    combined = [s for s in SCENARIOS if s.esd and s.adversary_kind]
    assert {s.adversary_kind for s in combined} == set(ADVERSARY_KINDS)
    assert any(s.faulted for s in combined)


def _run(scenario: Scenario, engine: str):
    bus = TraceBus()
    result = run_mix_experiment(
        list(get_mix(scenario.mix_id).profiles()),
        scenario.policy,
        scenario.p_cap_w,
        mix_id=scenario.mix_id,
        duration_s=scenario.duration_s,
        warmup_s=scenario.warmup_s,
        battery=default_battery() if scenario.esd else None,
        use_oracle_estimates=scenario.use_oracle_estimates,
        seed=scenario.seed,
        faults=_compressed_fault_plan(scenario.seed) if scenario.faulted else None,
        adversaries=(
            None
            if scenario.adversary_kind is None
            else default_adversary_schedule(
                get_mix(scenario.mix_id).names()[0],
                kind=scenario.adversary_kind,
                start_s=1.0,
                seed=scenario.seed,
            )
        ),
        trace_bus=bus,
        engine=engine,
    )
    verify_trace(bus.events)
    return result, summarize_trace(bus.events)


def _comparable_metrics(metrics: dict | None) -> dict | None:
    """Everything except the wall-clock ``profile`` section (the one part of
    the export that measures host time, not simulated behaviour)."""
    if metrics is None:
        return None
    return {k: v for k, v in metrics.items() if k != "profile"}


@pytest.mark.parametrize("scenario", SCENARIOS, ids=[s.name for s in SCENARIOS])
def test_engines_are_trace_identical(scenario: Scenario):
    scalar_result, scalar_summary = _run(scenario, "scalar")
    vector_result, vector_summary = _run(scenario, "vector")
    assert vector_summary["hash"] == scalar_summary["hash"], (
        f"{scenario.name}: vector trace diverged from the scalar reference "
        f"(modes scalar={scalar_summary['modes']} vector={vector_summary['modes']})"
    )
    assert vector_summary["modes"] == scalar_summary["modes"]
    assert vector_result.normalized_throughput == scalar_result.normalized_throughput
    assert vector_result.power_share == scalar_result.power_share
    assert vector_result.server_throughput == scalar_result.server_throughput
    assert vector_result.mean_wall_power_w == scalar_result.mean_wall_power_w
    assert _comparable_metrics(vector_result.metrics) == _comparable_metrics(
        scalar_result.metrics
    )


@pytest.mark.parametrize("seed", [0, 7, 23])
def test_final_state_dicts_are_equal(seed: int):
    """The engine must be invisible to the state tree: a run under either
    engine ends in exactly the same mediator state (which is also what makes
    cross-engine checkpoint restore legal)."""
    states = {}
    for engine in ("scalar", "vector"):
        recipe = RunRecipe(
            policy="app+res+esd-aware",
            p_cap_w=80.0,
            use_oracle_estimates=True,
            seed=seed,
            engine=engine,
        )
        mediator = recipe.build()
        for profile in get_mix(10).profiles():
            mediator.add_application(profile.with_total_work(float("inf")))
        mediator.run_for(6.0)
        states[engine] = mediator.state_dict()
    assert states["vector"] == states["scalar"]


def test_cross_engine_checkpoint_restore(tmp_path):
    """A checkpoint written under one engine restores under the other and
    continues bit-identically - state carries no engine residue."""
    from repro.persistence import RunStore, read_checkpoint, restore_mediator

    def build(engine: str):
        recipe = RunRecipe(
            policy="app+res-aware", p_cap_w=85.0, seed=5,
            use_oracle_estimates=True, engine=engine,
        )
        mediator = recipe.build()
        for profile in get_mix(3).profiles():
            mediator.add_application(profile.with_total_work(float("inf")))
        mediator.run_for(3.0)
        return recipe, mediator

    scalar_recipe, scalar_med = build("scalar")
    store = RunStore(tmp_path, scalar_recipe, owner="test")
    doc = read_checkpoint(store.checkpoint_dir / store.checkpoint(scalar_med, {}))
    # Flip the recorded engine before restoring: the state must not care.
    doc["recipe"]["engine"] = "vector"
    resumed = restore_mediator(doc)
    assert resumed.server.engine == "vector"
    scalar_med.run_for(2.0)
    resumed.run_for(2.0)
    assert resumed.state_dict() == scalar_med.state_dict()


# ----------------------------------------------------------------- fuzzing

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@st.composite
def fuzzed_scenarios(draw) -> Scenario:
    mix_id = draw(st.integers(min_value=1, max_value=15))
    policy = draw(
        st.sampled_from(("util-unaware", "app+res-aware", "app+res+esd-aware"))
    )
    adversary = draw(st.sampled_from((None, *ADVERSARY_KINDS)))
    return Scenario(
        name="fuzz",
        mix_id=mix_id,
        policy=policy,
        p_cap_w=float(draw(st.integers(min_value=60, max_value=120))),
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        use_oracle_estimates=draw(st.booleans()),
        esd=draw(st.booleans()),
        faulted=draw(st.booleans()),
        adversary_kind=adversary,
        duration_s=3.0,
        warmup_s=1.0,
    )


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
@given(scenario=fuzzed_scenarios())
def test_fuzzed_runs_are_trace_identical(scenario: Scenario):
    # Some fuzzed scenarios legitimately abort (e.g. an undefended policy
    # that cannot hold the cap against an aggressive adversary). That is
    # still a differential property: both engines must fail identically.
    from repro.errors import ReproError

    try:
        scalar_result, scalar_summary = _run(scenario, "scalar")
    except ReproError as scalar_exc:
        with pytest.raises(type(scalar_exc)) as vector_exc:
            _run(scenario, "vector")
        assert str(vector_exc.value) == str(scalar_exc)
        return
    vector_result, vector_summary = _run(scenario, "vector")
    assert vector_summary["hash"] == scalar_summary["hash"]
    assert vector_summary["modes"] == scalar_summary["modes"]
    assert _comparable_metrics(vector_result.metrics) == _comparable_metrics(
        scalar_result.metrics
    )


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
@given(
    mix_id=st.integers(min_value=1, max_value=15),
    kind=st.sampled_from(ADVERSARY_KINDS),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    faulted=st.booleans(),
)
def test_fuzzed_combined_regimes_end_in_equal_state(
    mix_id: int, kind: str, seed: int, faulted: bool
):
    """The full planning stack at once - ESD duty cycling, deep sleep,
    defense scoring, an adversary, optionally faults - must leave *equal
    state trees* under either engine, not just equal traces. This is the
    regime every batched phase of the mediated fast path replays, so the
    state-level pin here is what licenses the segment flush wholesale."""
    from repro.core.mediator import PowerMediator
    from repro.core.policies import make_policy
    from repro.errors import ReproError
    from repro.server.config import DEFAULT_SERVER_CONFIG
    from repro.server.server import SimulatedServer

    def build_and_run(engine: str):
        mediator = PowerMediator(
            SimulatedServer(DEFAULT_SERVER_CONFIG, seed=0, engine=engine),
            make_policy("app+res+esd-aware"),
            78.0,
            battery=default_battery(),
            use_oracle_estimates=True,
            seed=seed,
            faults=_compressed_fault_plan(seed) if faulted else None,
            adversaries=default_adversary_schedule(
                get_mix(mix_id).names()[0], kind=kind, start_s=1.0, seed=seed
            ),
        )
        for profile in get_mix(mix_id).profiles():
            mediator.add_application(profile.with_total_work(float("inf")))
        mediator.run_for(6.0)
        return mediator

    try:
        scalar_med = build_and_run("scalar")
    except ReproError as scalar_exc:
        with pytest.raises(type(scalar_exc)) as vector_exc:
            build_and_run("vector")
        assert str(vector_exc.value) == str(scalar_exc)
        return
    vector_med = build_and_run("vector")
    assert vector_med.state_dict() == scalar_med.state_dict()
    assert _comparable_metrics(vector_med.export_metrics()) == _comparable_metrics(
        scalar_med.export_metrics()
    )
