"""Hierarchy resilience: what multi-level mediation delivers, at what speed.

The budget tree stacks the flat lease/epoch control plane into
datacenter -> PDU -> rack levels; every watt a leaf enforces was
delegated down a chain of per-level leases over lossy fabrics. This
benchmark prices that stacking across fleet scale and network severity,
and what the flat (depth-1) plane costs the Fig. 12 cluster experiment:

* a fan-out x loss matrix (100 and 1000 servers), reporting the
  **mediation quality** each shape retains - the time-averaged fraction
  of the datacenter budget that reaches loaded leaves as enforceable
  caps once leases have warmed up - and the **breach count**, which is
  zero by construction (the replay raises if the sum of enforced caps
  ever exceeds any node's budget, so a completed run *is* the proof);
* a protocol-only throughput figure per fleet size (``steps_per_s``),
  since the tree multiplies controller work by the interior node count
  and the mediation path must stay cheap relative to the engine tick;
* a severity matrix (loss x partition length) on a small Fig. 12 cluster,
  reporting the aggregate performance each equal-split strategy retains
  relative to the oracle (instant, lossless, omniscient) cap
  distribution. The oracle is the upper bound by construction: the
  control plane pays for safety with guard-banded safe caps on silent
  nodes and lease latency on reclamation.

The rows land in ``BENCH_hierarchy.json`` (under ``$REPRO_BENCH_OUT`` when
set) so the committed numbers ride with the code; CI compares a fresh run
against the committed baseline and fails on a >20% steps/s regression at
either fleet size.
"""

from __future__ import annotations

import json
import time

import pytest

from benchmarks._tiny import out_path, pick, tiny
from repro.analysis.reporting import banner, format_table
from repro.chaos import run_hierarchy_chaos
from repro.cluster.cluster import ClusterSimulator
from repro.hierarchy import TreeSpec, run_budget_tree
from repro.netsim import NetConfig, PartitionWindow
from repro.observability.metrics import MetricsRegistry
from repro.workloads.mixes import all_mixes
from repro.workloads.traces import ClusterPowerTrace

SHAPES = pick(((10, 10), (10, 10, 10)), ((2, 2),))
LOSSES = pick((0.0, 0.1, 0.3), (0.2,))
STEPS = pick(120, 8)
WARMUP = pick(20, 2)
DRAIN = pick(20, 4)
BENCH_FANOUTS = pick((3, 4), (2, 2))
BENCH_STEPS = pick(40, 8)

SHAVE = 0.30
# (label, loss, partition windows) - none / short cut / long double cut.
SEVERITIES = (
    ("clean", 0.0, ()),
    ("lossy", 0.10, ()),
    ("short cut", 0.10, (PartitionWindow(3, 6, (1,)),)),
    ("long cut", 0.30, (PartitionWindow(2, 10, (0, 1)),)),
)


def _leaves(fanouts: tuple[int, ...]) -> int:
    n = 1
    for f in fanouts:
        n *= f
    return n


def _run(fanouts: tuple[int, ...], loss: float, *, steps: int = STEPS):
    """One full-load protocol replay; returns (outcome, wall seconds)."""
    n_leaves = _leaves(fanouts)
    spec = TreeSpec(fanouts=fanouts, budget_w=100.0 * n_leaves)
    net = NetConfig(
        loss=loss, duplicate=loss / 2.0, jitter_steps=1, seed=11
    )
    started = time.perf_counter()
    outcome = run_budget_tree(
        spec, [n_leaves] * steps, net=net, drain_steps=DRAIN
    )
    return outcome, time.perf_counter() - started


def _quality(outcome) -> float:
    """Time-averaged delivered fraction of the budget after lease warmup."""
    rows = outcome.caps_w[WARMUP:]
    return sum(sum(row) for row in rows) / (len(rows) * outcome.budget_w)


def test_mediation_quality_matrix(benchmark, emit):
    rows = []
    table = []
    for fanouts in SHAPES:
        n_leaves = _leaves(fanouts)
        quality_by_loss = {}
        breaches = 0
        elapsed_total = 0.0
        for loss in LOSSES:
            # A breach raises SimulationError inside the replay, so any
            # outcome we hold has a breach count of exactly zero.
            outcome, elapsed = _run(fanouts, loss)
            elapsed_total += elapsed
            quality_by_loss[loss] = _quality(outcome)
            assert outcome.max_total_cap_w <= outcome.budget_w + 1e-6
            assert outcome.zombie_free
            table.append(
                [
                    "x".join(str(f) for f in fanouts),
                    n_leaves,
                    f"{loss:.0%}",
                    f"{quality_by_loss[loss]:.1%}",
                    breaches,
                    outcome.fallbacks,
                    outcome.heals,
                    outcome.net_stats["dropped_loss"],
                ]
            )
        rows.append(
            {
                "n_servers": n_leaves,
                "fanouts": list(fanouts),
                "steps": STEPS,
                "steps_per_s": len(LOSSES) * STEPS / elapsed_total,
                "breaches": breaches,
                "quality_by_loss": {
                    f"{loss:g}": quality_by_loss[loss] for loss in LOSSES
                },
            }
        )

    benchmark(
        lambda: run_budget_tree(
            TreeSpec(
                fanouts=BENCH_FANOUTS,
                budget_w=100.0 * _leaves(BENCH_FANOUTS),
            ),
            [_leaves(BENCH_FANOUTS)] * BENCH_STEPS,
            net=NetConfig(loss=0.1, duplicate=0.05, jitter_steps=1, seed=3),
        )
    )

    emit("\n" + banner(f"HIERARCHY RESILIENCE: mediation quality, {STEPS} steps"))
    emit(
        format_table(
            ["tree", "servers", "loss", "quality", "breaches",
             "fallbacks", "heals", "drops"],
            table,
        )
    )
    for row in rows:
        emit(
            f"{row['n_servers']:>5} servers: {row['steps_per_s']:.1f} "
            f"mediation steps/s (protocol only, {len(LOSSES)} severities)"
        )

    path = out_path("BENCH_hierarchy.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "benchmark": "bench_hierarchy_resilience",
                "steps": STEPS,
                "warmup_steps": WARMUP,
                "losses": list(LOSSES),
                "rows": rows,
            },
            handle,
            indent=2,
            sort_keys=True,
        )
        handle.write("\n")
    emit(f"hierarchy resilience matrix -> {path}")

    if not tiny():
        by_size = {row["n_servers"]: row for row in rows}
        # The acceptance bar: on a clean network the tree delivers nearly
        # the whole budget at 100 servers, and loss degrades quality
        # gracefully (never to zero - the safe tier is unconditional).
        assert by_size[100]["quality_by_loss"]["0"] >= 0.90
        for row in rows:
            assert row["breaches"] == 0
            for quality in row["quality_by_loss"].values():
                assert 0.0 < quality <= 1.0 + 1e-9


@pytest.fixture(scope="module")
def small_cluster():
    simulator = ClusterSimulator(mixes=all_mixes()[:3], cap_grid_w=6.0)
    trace = ClusterPowerTrace.synthetic_diurnal(
        peak_w=simulator.uncapped_cluster_power_w(), days=0.15, step_s=600.0, seed=3
    )
    return simulator, trace


def _run_cluster(simulator, trace, *, netsim=None, metrics=None):
    return simulator.run(
        trace=trace,
        shave_fractions=(SHAVE,),
        duration_s=6.0,
        warmup_s=2.0,
        seed=1,
        netsim=netsim,
        metrics=metrics,
    )


def test_cluster_severity_matrix_perf_retention(
    benchmark, small_cluster, emit, bench_metrics
):
    simulator, trace = small_cluster
    oracle = _run_cluster(simulator, trace).results[SHAVE]
    metrics = MetricsRegistry()
    rows = []
    retained = {}
    for label, loss, partitions in SEVERITIES:
        net = NetConfig(
            loss=loss, duplicate=loss / 2.0, jitter_steps=1,
            partitions=partitions, seed=7,
        )
        lossy = _run_cluster(
            simulator, trace, netsim=net, metrics=metrics
        ).results[SHAVE]
        for policy in ("equal-rapl", "equal-ours"):
            base = oracle[policy].aggregate_performance
            got = lossy[policy].aggregate_performance
            retained[(label, policy)] = got / base if base > 0 else 1.0
            rows.append(
                [label, f"{loss:.0%}", policy, base, got,
                 f"{retained[(label, policy)]:.0%}"]
            )
    bench_metrics.record(metrics.to_json())
    # The cluster's chaos soak: 10 servers under one controller.
    result = benchmark(
        lambda: run_hierarchy_chaos(
            seed=1, fanouts=(10,), budget_w=800.0, n_steps=80
        )
    )
    emit("\n" + banner("Partition resilience: perf retained vs oracle distribution"))
    emit(
        format_table(
            ["network", "loss", "policy", "oracle perf", "lossy perf", "retained"],
            rows,
        )
    )
    assert result.headroom_w >= 0.0
    # Safety is never traded away: the lossy path can only lose performance
    # relative to the omniscient oracle, and never goes dark entirely.
    for (label, policy), ratio in retained.items():
        assert 0.0 < ratio <= 1.0 + 1e-9, (label, policy)
    assert metrics.counter("controlplane.commands").value > 0
