"""Mediator-in-the-loop throughput: horizon-segmented ``run_for`` vs the loop.

Not a paper figure - this benchmark prices the *end-to-end* fast path.
``bench_engine_throughput`` prices the vector models alone, but a mediated
tick also walks telemetry, heartbeats, learning, allocation, coordination,
events and defense; this benchmark measures how much of that planning
stack a vector-engine :meth:`~repro.core.mediator.PowerMediator.run_for`
recovers. The same fleet - Table II mixes cycled across N servers, every
app with unbounded work - advances the same simulated span two ways:

* **scalar** - one :class:`~repro.core.mediator.PowerMediator` per server
  on the scalar engine, each ``run_for`` (the literal tick loop) in a
  Python loop: the golden reference;
* **vector** - the same mediators on the vector engine, advanced by a
  :class:`~repro.engine.planner.MediatedFleet`, a loop over their
  ``run_for``, which replays steady stretches in closed-form horizon
  segments and drops to ``step()`` whenever any entry gate fails; the
  fleet sums the mediators' fast-path counts.

Both arms first run an untimed warmup so the measured window is the steady
state the fast path targets (cold-start allocation epochs are scalar by
design; including them would benchmark the demotion policy, not the
kernels). Each row re-checks the equivalence contract - identical mediator
``state_dict()`` and metrics (minus wall-clock profiling) across arms - so
the speedup is never quoted for a path that drifted.

Beyond the scalar-vs-vector trajectory (10/100/1000 servers), two variant
arms at the 100-server point price the planning phases individually:
defense off (no trust scoring to replay) and the ESD duty-cycle policy
(battery flows + sleep-state residency in the flush).

The rows land in ``BENCH_mediator.json`` (under ``$REPRO_BENCH_OUT`` when
set); CI compares a fresh run against the committed
baseline and fails on a >20% vector-throughput regression.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import time

from benchmarks._tiny import out_path, pick, tiny
from repro.analysis.reporting import banner, format_table
from repro.core.mediator import PowerMediator
from repro.core.policies import make_policy
from repro.core.simulation import default_battery
from repro.core.trust import DefenseConfig
from repro.engine import MediatedFleet
from repro.learning.crossval import build_exhaustive_corpus
from repro.server.config import DEFAULT_SERVER_CONFIG
from repro.server.server import SimulatedServer
from repro.workloads.catalog import CATALOG
from repro.workloads.mixes import get_mix

SIZES = pick((10, 100, 1000), (2,))
TICKS = pick(200, 12)
WARMUP_TICKS = pick(80, 6)
BENCH_SIZE = pick(100, 2)
DT_S = 0.1
CAP_W = 95.0

# One profiling corpus for every mediator in every arm: it is read-only
# under oracle estimates and its construction would otherwise dominate
# fleet build time at 1000 servers.
_CORPUS = build_exhaustive_corpus(DEFAULT_SERVER_CONFIG, list(CATALOG.values()))


def _build_mediators(
    n_servers: int,
    *,
    engine: str,
    policy: str = "app+res-aware",
    defense: DefenseConfig | None = None,
) -> list[PowerMediator]:
    policy_obj = make_policy(policy)
    # Per-arm cache: CandidateSets are pure, so every server running the
    # same mix shares one set instead of rebuilding it per allocation epoch.
    oracle_cache: dict = {}
    mediators = []
    for i in range(n_servers):
        server = SimulatedServer(DEFAULT_SERVER_CONFIG, seed=0, engine=engine)
        mediator = PowerMediator(
            server,
            policy_obj,
            CAP_W,
            battery=default_battery() if policy_obj.uses_esd else None,
            corpus=_CORPUS,
            use_oracle_estimates=True,
            dt_s=DT_S,
            seed=i,
            defense=defense,
            oracle_cache=oracle_cache,
        )
        for profile in get_mix(1 + (i % 15)).profiles():
            mediator.add_application(profile.with_total_work(float("inf")))
        mediators.append(mediator)
    return mediators


@contextlib.contextmanager
def _quiesced_gc():
    """Freeze the warmup heap and pause collection for the timed window.

    Both arms retain every TickRecord of every mediator, so by 1000 servers
    the live heap is millions of objects and generational collections - not
    mediation - dominate wall clock, punishing whichever arm is faster.
    Freezing before the measurement times the work instead of the collector;
    both arms get the identical treatment.
    """
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


def _scalar_arm(mediators: list[PowerMediator]) -> float:
    for m in mediators:
        m.run_for(WARMUP_TICKS * DT_S)
    with _quiesced_gc():
        started = time.perf_counter()
        for m in mediators:
            m.run_for(TICKS * DT_S)
        return time.perf_counter() - started


def _vector_arm(mediators: list[PowerMediator]) -> tuple[float, MediatedFleet]:
    fleet = MediatedFleet(mediators)
    fleet.run_for(WARMUP_TICKS * DT_S)
    with _quiesced_gc():
        started = time.perf_counter()
        fleet.run_for(TICKS * DT_S)
        return time.perf_counter() - started, fleet


def _comparable_metrics(mediator: PowerMediator) -> dict:
    doc = mediator.export_metrics()
    doc.pop("profile", None)  # wall-clock timings, not simulation facts
    return doc


def _fingerprint(mediator: PowerMediator) -> str:
    """Canonical digest of everything the equivalence contract covers."""
    doc = {
        "state": mediator.state_dict(),
        "metrics": _comparable_metrics(mediator),
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _measure(n_servers: int, **kwargs) -> dict:
    # The arms run strictly one after the other, and the scalar fleet is
    # reduced to per-mediator digests before the vector fleet is even
    # built: keeping ~1e6 scalar TickRecords alive fragments the allocator
    # enough to slow the (allocation-heavy) vector flush ~17x at 1000
    # servers, which would price the harness, not the planner.
    scalar_meds = _build_mediators(n_servers, engine="scalar", **kwargs)
    scalar_s = _scalar_arm(scalar_meds)
    reference = [_fingerprint(m) for m in scalar_meds]
    del scalar_meds
    gc.collect()

    vector_meds = _build_mediators(n_servers, engine="vector", **kwargs)
    vector_s, fleet = _vector_arm(vector_meds)
    # The speedup is only worth quoting while the contract holds.
    for digest, v in zip(reference, vector_meds):
        assert _fingerprint(v) == digest
    fast_fraction = fleet.fast_fraction
    del vector_meds, fleet
    gc.collect()

    ticks = n_servers * TICKS
    return {
        "n_servers": n_servers,
        "ticks_per_server": TICKS,
        "scalar_s": scalar_s,
        "vector_s": vector_s,
        "scalar_ticks_per_s": ticks / scalar_s,
        "vector_ticks_per_s": ticks / vector_s,
        "speedup": scalar_s / vector_s,
        "fast_fraction": fast_fraction,
    }


def test_mediator_throughput_trajectory(benchmark, emit):
    rows = []
    for n_servers in SIZES:
        if n_servers == BENCH_SIZE:
            row = benchmark.pedantic(
                _measure, args=(n_servers,), rounds=1, iterations=1
            )
        else:
            row = _measure(n_servers)
        row["arm"] = "default"
        rows.append(row)

    variants = []
    for arm, kwargs in (
        ("no-defense", {"defense": DefenseConfig(enabled=False)}),
        ("esd", {"policy": "app+res+esd-aware"}),
    ):
        row = _measure(BENCH_SIZE, **kwargs)
        row["arm"] = arm
        variants.append(row)

    emit(
        "\n"
        + banner(
            f"MEDIATOR THROUGHPUT: scalar loop vs MediatedFleet, "
            f"{TICKS} ticks/server after {WARMUP_TICKS} warmup"
        )
    )
    emit(
        format_table(
            ["arm", "servers", "scalar ticks/s", "vector ticks/s", "speedup", "fast"],
            [
                [
                    row["arm"],
                    row["n_servers"],
                    f"{row['scalar_ticks_per_s']:.0f}",
                    f"{row['vector_ticks_per_s']:.0f}",
                    f"{row['speedup']:.1f}x",
                    f"{row['fast_fraction']:.1%}",
                ]
                for row in rows + variants
            ],
        )
    )

    path = out_path("BENCH_mediator.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "benchmark": "bench_mediator_throughput",
                "dt_s": DT_S,
                "cap_w": CAP_W,
                "warmup_ticks": WARMUP_TICKS,
                "rows": rows,
                "variants": variants,
            },
            handle,
            indent=2,
            sort_keys=True,
        )
        handle.write("\n")
    emit(f"mediator throughput trajectory -> {path}")

    if not tiny():
        by_size = {row["n_servers"]: row for row in rows}
        # The acceptance bar: >= 10x end-to-end at 100 servers.
        assert by_size[100]["speedup"] >= 10.0
        # The fast path must actually carry the steady state, or the
        # speedup came from somewhere else (and will not generalize).
        for row in rows + variants:
            assert row["fast_fraction"] >= 0.90
