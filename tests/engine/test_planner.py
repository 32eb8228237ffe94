"""The mediated fast path is pinned to the per-tick scalar loop.

A vector-engine ``PowerMediator.run_for`` (and a
:class:`~repro.engine.planner.MediatedFleet`, a loop over it) promises the
same contract the vector models do - *bit-identical*, not "close": a
mediator advanced through horizon segments must end every run with exactly
the state, metrics, timeline and trace a literal ``step()`` loop produces.
Every reference side below is that literal loop (:func:`_loop_for`), never
a vector ``run_for``, which takes segments itself. Two layers enforce it
here:

1. **Kernel pins**: the Python folds (``_seq_add``, ``_seq_add_final``,
   ``_seq_mul_final``, ``_rapl_march``) are checked
   element-by-element against the literal loop they stand for, across
   magnitudes where float addition is far from associative, so a
   reordered or compensated sum (the builtin ``sum`` on CPython 3.12)
   fails here first; ``_clean_work_ticks`` is checked against the
   engine's own work ledger.
2. **Fleet-vs-loop differentials**: seeded scenarios spanning the regimes
   the fast path replays (SPACE allocation, ESD duty cycling, TIME
   rotation, defense on and off, both engines, mid-run cap changes and
   admissions, app completion to the exact tick,
   changed trust fingerprints, fractional durations, a trace bus attached,
   the experiment drivers' default engine) plus a hypothesis fuzz layer,
   which runs a larger budget under ``REPRO_SOAK=1``. Equality is ``==``
   on state dicts, metrics and the tick timeline.

The *speed* of the fast path is priced in
``benchmarks/bench_mediator_throughput.py``; this file only proves it legal.
"""

from __future__ import annotations

import gc
import math
import os
import weakref
from functools import reduce
from itertools import repeat
from operator import add

import numpy as np
import pytest

from repro.core.coordinator import CoordinationMode
from repro.core.mediator import PowerMediator
from repro.core.policies import make_policy
from repro.core.simulation import default_battery, run_mix_experiment
from repro.core.trust import DefenseConfig
from repro.engine import planner
from repro.engine.planner import (
    MediatedFleet,
    _clean_work_ticks,
    _rapl_march,
    _seq_add,
    _seq_add_final,
    _seq_mul_final,
)
from repro.errors import ConfigurationError
from repro.observability.trace import TraceBus, trace_hash
from repro.server.config import DEFAULT_SERVER_CONFIG
from repro.server.server import SimulatedServer
from repro.workloads.mixes import get_mix

# ------------------------------------------------------------------ kernels


@pytest.mark.parametrize(
    "start,step,k",
    [
        (0.0, 0.1, 1000),
        (1e9, 0.1, 500),  # large/small: addition here is order-sensitive
        (3.7, -0.3333333333333333, 257),
        (0.0, 7.25, 1),
    ],
)
def test_seq_add_matches_the_python_fold(start, step, k):
    values = _seq_add(start, step, k)
    acc = start
    for i in range(k):
        acc += step
        assert values[i + 1] == acc  # bitwise: == on floats, no tolerance
    assert values[0] == start
    assert len(values) == k + 1
    assert _seq_add_final(start, step, k) == acc


@pytest.mark.parametrize(
    "start,factor,k",
    [(1.0, 0.9, 400), (2.5, 0.9999999, 1000), (1e-12, 1.5, 64)],
)
def test_seq_mul_final_matches_the_python_fold(start, factor, k):
    acc = start
    for _ in range(k):
        acc *= factor
    assert _seq_mul_final(start, factor, k) == acc


@pytest.mark.parametrize("seed", range(5))
def test_rapl_march_matches_the_modulo_fold(seed):
    rng = np.random.default_rng(seed)
    wrap = float(rng.uniform(50.0, 500.0))
    e0 = float(rng.uniform(0.0, wrap))
    step = float(rng.uniform(0.01, wrap / 3.0))
    k = 4096
    values = _rapl_march(e0, step, wrap, k)
    acc = e0
    wraps = 0
    for i in range(k):
        wraps += acc + step >= wrap
        acc = (acc + step) % wrap  # the scalar counter's advance
        assert values[i] == acc
    assert len(values) == k
    assert wraps > 1


def _engine_clean_ticks(total_work: float, k: int) -> tuple[float, int]:
    """Per-tick work of one app alone on a server, and how many of its
    first ``k`` ticks add that work unclipped without completing it."""
    server = SimulatedServer(DEFAULT_SERVER_CONFIG, seed=0)
    profile = get_mix(7).profiles()[0]
    server.admit(profile.with_total_work(total_work))
    work = server.perf_model.rate(profile, DEFAULT_SERVER_CONFIG.max_knob) * 0.1
    for i in range(k):
        result = server.tick(0.1)
        if result.progressed[profile.name] != work or result.completed:
            return work, i
    return work, k


@pytest.mark.parametrize("n", [1, 2, 3, 17, 40])
@pytest.mark.parametrize("nudge", [-1, 0, 1])
def test_clean_work_ticks_match_the_engine_ledger(n, nudge):
    # A job sized to the fl fold of n full ticks completes on tick n; one
    # ulp either side moves the completion or the clip.
    work, _ = _engine_clean_ticks(math.inf, 1)
    total = reduce(add, repeat(work, n), 0.0)
    total = math.nextafter(total, math.inf * nudge) if nudge else total
    k = n + 3
    _, expected = _engine_clean_ticks(total, k)
    assert _clean_work_ticks(total, 0.0, work, k) == expected
    assert expected in (n - 1, n)


def test_clean_work_ticks_match_the_literal_ledger():
    # The fold tests completion only; the engine also clips. Random jobs
    # a few ticks from their end check that a clipping tick never slips
    # through as clean.
    rng = np.random.default_rng(0)
    k = 24
    for _ in range(3000):
        work = float(rng.uniform(0.01, 1.0))
        done = float(rng.uniform(0.0, 5000.0))
        total = done + work * float(rng.uniform(0.0, 20.0))
        expected, acc = k, done
        for i in range(k):
            step = min(work, max(0.0, total - acc))  # SimulatedServer.tick
            acc += step
            if step != work or max(0.0, total - acc) <= 0.0:
                expected = i
                break
        assert _clean_work_ticks(total, done, work, k) == expected


# ---------------------------------------------------------- fleet-vs-loop


def _build(
    engine: str,
    mix_id: int,
    *,
    policy: str = "app+res-aware",
    cap: float = 95.0,
    seed: int = 0,
    total_work: float = float("inf"),
    defense: DefenseConfig | None = None,
    trace_bus: TraceBus | None = None,
    n_apps: int | None = None,
) -> PowerMediator:
    policy_obj = make_policy(policy)
    mediator = PowerMediator(
        SimulatedServer(DEFAULT_SERVER_CONFIG, seed=0, engine=engine),
        policy_obj,
        cap,
        battery=default_battery() if policy_obj.uses_esd else None,
        use_oracle_estimates=True,
        seed=seed,
        defense=defense,
        trace_bus=trace_bus,
    )
    for profile in get_mix(mix_id).profiles()[:n_apps]:
        mediator.add_application(profile.with_total_work(total_work))
    return mediator


def _comparable_metrics(mediator: PowerMediator) -> dict:
    doc = mediator.export_metrics()
    doc.pop("profile", None)  # wall-clock, not simulation facts
    return doc


def _assert_pair_equal(fast: PowerMediator, ref: PowerMediator) -> None:
    assert fast.state_dict() == ref.state_dict()
    assert _comparable_metrics(fast) == _comparable_metrics(ref)
    assert fast.timeline == ref.timeline


def _loop_for(m: PowerMediator, duration_s: float) -> None:
    """The reference: ``run_for``'s scalar loop, written out with ``step()``."""
    end = m.server.now_s + duration_s
    while m.server.now_s < end - 1e-9:
        m.step()


def _run_both(duration_s: float, build_kwargs: dict):
    """The same mediator advanced by the fleet and by the literal loop."""
    fast = _build(**build_kwargs)
    ref = _build(**build_kwargs)
    fleet = MediatedFleet([fast])
    fleet.run_for(duration_s)
    _loop_for(ref, duration_s)
    _assert_pair_equal(fast, ref)
    return fleet


@pytest.mark.parametrize("engine", ["scalar", "vector"])
@pytest.mark.parametrize(
    "policy,mix_id,cap",
    [
        ("app+res-aware", 3, 95.0),  # SPACE steady state
        ("app+res-aware", 7, 62.0),  # tight cap, throttled allocation
        ("app+res+esd-aware", 10, 80.0),  # ESD duty cycle: flows + sleep
        ("util-unaware", 1, 80.0),  # TIME rotation: slot edges stay scalar
    ],
)
def test_fleet_equals_loop_across_regimes(engine, policy, mix_id, cap):
    fleet = _run_both(
        20.0, dict(engine=engine, mix_id=mix_id, policy=policy, cap=cap)
    )
    if engine == "scalar":
        # A scalar-engine run_for is the literal loop: no segment, no count.
        assert fleet.fast_ticks == fleet.scalar_ticks == 0
    elif policy == "util-unaware":
        # Between slot edges the rotation only advances its cursor, so the
        # fleet replays those ticks and walks each edge on the scalar path.
        assert fleet.fast_ticks > 0
        assert "time-rotation" not in fleet.demotions
    else:
        assert fleet.fast_fraction > 0.5, fleet.demotions


def test_fleet_equals_loop_with_defense_off():
    _run_both(
        15.0,
        dict(engine="vector", mix_id=4, defense=DefenseConfig(enabled=False)),
    )


def test_fleet_equals_loop_when_apps_complete():
    # Finite work: completion events (E3) fire mid-run, forcing demotions
    # at the departure edges; the fleet must land the exact same ticks.
    fleet = _run_both(
        20.0, dict(engine="vector", mix_id=2, total_work=150.0)
    )
    assert fleet.scalar_ticks > 0  # the departures really happened


def _segment_spy(monkeypatch) -> list[tuple[int, int, list]]:
    """Record ``(first tick index, k, trust_flush)`` of every flush."""
    flushed: list[tuple[int, int, list]] = []
    flush = planner._flush_segment

    def spy(m, k, **kwargs):
        # Read before the flush writes: (record, cooldown0, new fingerprint).
        trust = [(r, r.fingerprint, fp) for r, _, fp in kwargs["trust_flush"]]
        flushed.append((len(m.timeline), k, trust))
        flush(m, k, **kwargs)

    monkeypatch.setattr(planner, "_flush_segment", spy)
    return flushed


def test_fleet_replays_up_to_the_completion_tick(monkeypatch):
    # The job is sized to the fl fold of its own per-tick work (a half
    # first tick, then m full ones). floor(remaining / work) after the
    # first tick then counts one full tick more than the engine's ledger
    # runs before the tick that clips or completes the job: the estimate
    # and the fold disagree. The segment must still end on the tick
    # before completion, and the scalar path take the completion tick.
    build = dict(engine="vector", mix_id=1, n_apps=1)
    probe = _build(**build)
    _loop_for(probe, 0.2)
    ((name, first),) = probe.timeline[0].progressed.items()
    work = probe.timeline[1].progressed[name]
    for m in range(30, 200):
        total = reduce(add, repeat(work, m), first)
        clean = _clean_work_ticks(total, first, work, 2 * m)
        if math.floor((total - first) / work) != clean:
            break
    else:
        pytest.fail("no job size where the floor estimate and the fold disagree")
    build["total_work"] = total
    flushed = _segment_spy(monkeypatch)
    fast, ref = _build(**build), _build(**build)
    fleet = MediatedFleet([fast])
    fleet.run_for((clean + 10) * 0.1)
    _loop_for(ref, (clean + 10) * 0.1)
    _assert_pair_equal(fast, ref)
    # Timeline index i is tick i + 1: the clean ticks are 1..clean, and
    # the job completes on index clean + 1.
    assert all(r.progressed[name] == work for r in ref.timeline[1 : clean + 1])
    assert name in ref.timeline[clean + 1].progressed
    assert name not in ref.timeline[clean + 2].progressed
    assert any(start + k == clean + 1 for start, k, _ in flushed), flushed


@pytest.mark.parametrize("cooldown", [0, 1, 2, 25])
def test_fleet_folds_a_changed_trust_fingerprint(monkeypatch, cooldown):
    # Every leg raises the cap, so the reallocated knobs change each
    # tenant's fingerprint on the leg's first tick. A tenant given more
    # power beats faster than anything its heartbeat window holds, so the
    # efficiency check cannot fire at the new knob whatever the cooldown,
    # and a segment can start on that tick, restarting the cooldown in
    # its fold.
    flushed = _segment_spy(monkeypatch)
    defense = DefenseConfig(cooldown_ticks=cooldown)
    fast = _build(engine="vector", mix_id=3, defense=defense)
    ref = _build(engine="vector", mix_id=3, defense=defense)
    fleet = MediatedFleet([fast])
    for cap in (75.0, 80.0, 85.0, 90.0, 95.0, 100.0):
        fast.set_power_cap(cap)
        ref.set_power_cap(cap)
        fleet.run_for(1.5)
        _loop_for(ref, 1.5)
        _assert_pair_equal(fast, ref)
    assert any(old != new for *_, trust in flushed for _, old, new in trust)
    assert "trust-fingerprint" not in fleet.demotions


@pytest.mark.parametrize("duration", [0.1, 0.7, 3.3, 11.13])
def test_fleet_equals_loop_for_fractional_durations(duration):
    _run_both(duration, dict(engine="vector", mix_id=6))


def test_fleet_equals_loop_across_mid_run_cap_changes():
    fast = _build(engine="vector", mix_id=3)
    ref = _build(engine="vector", mix_id=3)
    fleet = MediatedFleet([fast])
    for cap in (95.0, 70.0, 110.0):
        fast.set_power_cap(cap)
        ref.set_power_cap(cap)
        fleet.run_for(6.0)
        _loop_for(ref, 6.0)
    _assert_pair_equal(fast, ref)


def test_composed_fleet_equals_loop_through_calibration_slots_and_debt(
    monkeypatch,
):
    # What a composed run does to a fleet: admissions calibrate, an app
    # arrives mid-run, caps change, a TIME mediator crosses two slot edges,
    # and a suspended app holds resume debt it has not repaid.
    flushed: list[tuple[CoordinationMode, bool]] = []
    flush = planner._flush_segment

    def spy(m, k, **kwargs):
        server = m.server
        active = set(server.active_applications())
        frozen_debt = any(
            handle.resume_debt_s > 0.0 and name not in active
            for name, handle in server._handles.items()
        )
        flushed.append((kwargs["mode"], frozen_debt))
        flush(m, k, **kwargs)

    monkeypatch.setattr(planner, "_flush_segment", spy)

    def build() -> list[PowerMediator]:
        return [
            _build(engine="vector", mix_id=1, policy="util-unaware", cap=80.0),
            _build(engine="vector", mix_id=3, seed=1),
            _build(engine="vector", mix_id=7, seed=2, n_apps=1),
        ]

    def drive(mediators, advance):
        rotating, spatial, growing = mediators
        advance(1.0)
        yield
        # SPACE resumes the suspended slot-1 app, then TIME's slot 0
        # suspends it again before it has run: its resume debt stays.
        rotating.set_power_cap(130.0)
        rotating.set_power_cap(80.0)
        spatial.set_power_cap(70.0)
        advance(2.0)
        yield
        growing.add_application(get_mix(7).profiles()[1])
        advance(0.5)
        yield
        advance(11.0)
        yield

    fast, ref = build(), build()
    fleet = MediatedFleet(fast)

    def loop(duration_s: float) -> None:
        for m in ref:
            _loop_for(m, duration_s)

    for _ in zip(drive(fast, fleet.run_for), drive(ref, loop)):
        for f, r in zip(fast, ref):
            _assert_pair_equal(f, r)
    assert any(frozen for _, frozen in flushed)
    assert any(mode is CoordinationMode.TIME for mode, _ in flushed)
    running = [
        tuple(sorted(r.app_power_w)) for r in fast[0].timeline if r.time_s > 1.05
    ]
    assert sum(a != b for a, b in zip(running, running[1:])) >= 2  # slot edges
    assert "time-rotation" not in fleet.demotions


#: The paper-mixes regimes: (policy, cap, the mode the run settles in).
REGIMES = (
    ("app+res-aware", 100.0, CoordinationMode.SPACE),
    ("app+res-aware", 80.0, CoordinationMode.TIME),
    ("app+res+esd-aware", 80.0, CoordinationMode.ESD),
)


def test_traced_mediators_take_fast_ticks_and_equal_the_loop(monkeypatch):
    # A replayed tick emits what a steady scalar tick does: the cursor, the
    # tick event and, while the battery flows, the battery event. Between
    # run_for calls the cursor must sit where the loop leaves it, so the
    # cap change between the two legs is stamped alike.
    flushed = _segment_spy(monkeypatch)
    for policy, cap, mode in REGIMES:
        flushed.clear()
        build = dict(engine="vector", mix_id=10, policy=policy, cap=cap)
        fast_bus, ref_bus = TraceBus(), TraceBus()
        fast = _build(**build, trace_bus=fast_bus)
        ref = _build(**build, trace_bus=ref_bus)
        for m, advance in ((fast, fast.run_for), (ref, lambda d: _loop_for(ref, d))):
            advance(6.0)
            m.set_power_cap(cap - 5.0)
            advance(6.0)
        _assert_pair_equal(fast, ref)
        assert fast_bus.events == ref_bus.events
        assert fast_bus.content_hash() == ref_bus.content_hash()
        assert fast.fast_path.fast_ticks > 0, fast.fast_path.demotions
        assert "trace-attached" not in fast.fast_path.demotions
        assert any(r.mode is mode for r in fast.timeline)
        replayed = {
            index for start, k, _ in flushed for index in range(start, start + k)
        }
        kinds = {e.kind for e in fast_bus.events if e.tick in replayed}
        assert "tick" in kinds
        if mode is CoordinationMode.ESD:
            assert "battery" in kinds


def test_a_finished_fast_run_is_freed_without_a_collection():
    # The fast-path counts live on the mediator and hold no reference back
    # to it: a cycle would keep every finished run, timeline and all, alive
    # until a full collection.
    m = _build(engine="vector", mix_id=10, trace_bus=TraceBus())
    m.run_for(3.0)
    assert m.fast_path.fast_ticks > 0
    ref = weakref.ref(m)
    gc.disable()
    try:
        del m
        assert ref() is None
    finally:
        gc.enable()


def test_heterogeneous_fleet_advances_every_member():
    mediators = [
        _build(engine="vector", mix_id=1 + i, seed=i, cap=80.0 + 5 * i)
        for i in range(4)
    ]
    refs = [
        _build(engine="vector", mix_id=1 + i, seed=i, cap=80.0 + 5 * i)
        for i in range(4)
    ]
    fleet = MediatedFleet(mediators)
    fleet.run_for(12.0)
    for fast, ref in zip(mediators, refs):
        _loop_for(ref, 12.0)
        assert math.isclose(fast.server.now_s, 12.0)
        _assert_pair_equal(fast, ref)
    assert fleet.fast_ticks + fleet.scalar_ticks == 4 * 120
    assert fleet.fast_segments == sum(m.fast_path.segments for m in mediators)


@pytest.mark.parametrize("mix_id", [1, 8, 14])
@pytest.mark.parametrize("policy,cap,_mode", REGIMES, ids=["space", "time", "esd"])
def test_default_engine_runs_equal_the_scalar_reference(mix_id, policy, cap, _mode):
    # The experiment drivers default to the vector engine, so their runs
    # take fast segments, traced; the scalar engine stays the reference.
    runs = {}
    for engine in (None, "scalar"):
        bus = TraceBus()
        result = run_mix_experiment(
            list(get_mix(mix_id).profiles()),
            policy,
            cap,
            mix_id=mix_id,
            duration_s=4.0,
            warmup_s=2.0,
            seed=mix_id,
            trace_bus=bus,
            **({} if engine is None else {"engine": engine}),
        )
        metrics = dict(result.metrics)
        profile = metrics.pop("profile")
        runs[engine] = (result, metrics, profile, trace_hash(bus.events))
    fast, fast_metrics, profile, fast_hash = runs[None]
    ref, ref_metrics, ref_profile, ref_hash = runs["scalar"]
    assert fast.normalized_throughput == ref.normalized_throughput
    assert fast.power_share == ref.power_share
    assert fast.server_throughput == ref.server_throughput
    assert fast.mean_wall_power_w == ref.mean_wall_power_w
    assert fast_metrics == ref_metrics
    assert fast.fault_stats.state_dict() == ref.fault_stats.state_dict()
    assert fast_hash == ref_hash
    assert profile["fast_path"]["fast_ticks"] > 0
    assert "fast_path" not in ref_profile


# ------------------------------------------------------------- validation


def test_fleet_rejects_bad_construction():
    with pytest.raises(ConfigurationError):
        MediatedFleet([])
    with pytest.raises(ConfigurationError):
        MediatedFleet([object()])
    good = _build(engine="scalar", mix_id=1)
    with pytest.raises(ConfigurationError):
        MediatedFleet([good]).run_for(0.0)


# ----------------------------------------------------------------- fuzzing

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


#: ``REPRO_SOAK=1`` (CI's engine-equivalence job) runs a larger budget.
SOAK = os.environ.get("REPRO_SOAK") == "1"


@settings(
    max_examples=200 if SOAK else 10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
@given(
    mix_id=st.integers(min_value=1, max_value=15),
    policy=st.sampled_from(("app+res-aware", "app+res+esd-aware", "util-unaware")),
    caps=st.lists(st.integers(min_value=65, max_value=115), min_size=1, max_size=3),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    engine=st.sampled_from(("scalar", "vector")),
    leg_ticks=st.integers(min_value=1, max_value=120),
    min_fast=st.integers(min_value=1, max_value=32),
    total_work=st.one_of(
        st.just(math.inf), st.floats(min_value=1.0, max_value=120.0)
    ),
    cooldown=st.sampled_from((0, 1, 2, 5, 25)),
)
def test_fuzzed_fleet_runs_equal_the_loop(
    mix_id,
    policy,
    caps,
    seed,
    engine,
    leg_ticks,
    min_fast,
    total_work,
    cooldown,
):
    # One leg per cap: the cap changes between legs, jobs with finite work
    # complete mid-run, the defense cooldown varies, and so does the
    # shortest segment the planner takes.
    from repro.errors import ReproError

    kwargs = dict(
        engine=engine,
        mix_id=mix_id,
        policy=policy,
        cap=float(caps[0]),
        seed=seed,
        total_work=total_work,
        defense=DefenseConfig(cooldown_ticks=cooldown),
    )
    duration = leg_ticks * 0.1

    def drive(fleet: bool) -> PowerMediator:
        m = _build(**kwargs)
        for leg, cap in enumerate(caps):
            if leg:
                m.set_power_cap(float(cap))
            if fleet:
                m.run_for(duration)
            else:
                _loop_for(m, duration)
        return m

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(planner, "MIN_FAST_TICKS", min_fast)
        try:
            ref = drive(fleet=False)
        except ReproError as ref_exc:
            with pytest.raises(type(ref_exc)) as fast_exc:
                drive(fleet=True)
            assert str(fast_exc.value) == str(ref_exc)
            return
        _assert_pair_equal(drive(fleet=True), ref)
