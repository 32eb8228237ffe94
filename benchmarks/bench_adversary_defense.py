"""Adversary defense: what catching a strategic tenant costs the honest ones.

Not a paper figure - this benchmark prices the PR 7 defense layer. For each
attack kind the byzantine harness runs its three arms (all-honest control,
adversarial defended, adversarial undefended) on mix 1, and each row
reports:

* **detection ticks** - quarantine latency from the attack window opening;
* **honest retention** - the honest tenant's defended throughput as a
  fraction of its all-honest baseline (the harness's enforced floor);
* **defense delta** - defended minus undefended honest throughput: positive
  when quarantining the attacker wins budget back, bounded below by the
  harness's ``UNDEFENDED_SLACK`` when the guard band costs more than the
  attack did.

The rows land in ``BENCH_adversary.json`` (under ``$REPRO_BENCH_OUT``
when set) so the numbers are committed alongside the
defenses they price; the pytest-benchmark measurement covers the inflate
comparison as the representative unit.
"""

from __future__ import annotations

import json

from benchmarks._tiny import out_path, pick
from repro.adversary.plan import ADVERSARY_KINDS
from repro.analysis.reporting import banner, format_table
from repro.chaos import run_adversary_mix

BENCH_KIND = "inflate"
KINDS = pick(ADVERSARY_KINDS, (BENCH_KIND,))


def _run(kind: str) -> dict:
    result = run_adversary_mix(kind, seed=0)
    honest = sorted(result.honest_retention)
    scenario = result.scenario
    defended = result.defended
    undefended = result.undefended
    return {
        "kind": kind,
        "policy": scenario.policy,
        "p_cap_w": scenario.p_cap_w,
        "attackers": list(result.attackers),
        "detection_latency_ticks": dict(result.detection_latency_ticks),
        "detection_bound_ticks": scenario.detection_bound_ticks,
        "honest_retention": {
            app: result.honest_retention[app] for app in honest
        },
        "retention_floor": scenario.retention_floor,
        "honest_throughput": {
            "baseline": {
                app: result.baseline.normalized_throughput[app] for app in honest
            },
            "defended": {
                app: defended.normalized_throughput[app] for app in honest
            },
            "undefended": {
                app: undefended.normalized_throughput[app] for app in honest
            },
        },
        "defense_delta": {
            app: defended.normalized_throughput[app]
            - undefended.normalized_throughput[app]
            for app in honest
        },
        "false_positives": result.false_positives,
    }


def test_adversary_defense_costs(benchmark, emit):
    rows = []
    for kind in KINDS:
        if kind == BENCH_KIND:
            row = benchmark.pedantic(
                lambda: _run(BENCH_KIND), rounds=1, iterations=1
            )
        else:
            row = _run(kind)
        rows.append(row)
        # run_adversary_mix already enforced detection, retention, and the
        # false-positive invariants; re-assert the headline ones so a
        # harness regression cannot hide behind a stale JSON artifact.
        assert row["false_positives"] == 0
        assert all(
            lat <= row["detection_bound_ticks"]
            for lat in row["detection_latency_ticks"].values()
        )

    emit(banner("adversary defense costs, mix 1, seed 0"))
    emit(
        format_table(
            ["kind", "cap W", "detect ticks", "retention", "defense delta"],
            [
                [
                    row["kind"],
                    row["p_cap_w"],
                    max(row["detection_latency_ticks"].values()),
                    f"{min(row['honest_retention'].values()):.3f}",
                    f"{min(row['defense_delta'].values()):+.4f}",
                ]
                for row in rows
            ],
        )
    )

    path = out_path("BENCH_adversary.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "benchmark": "bench_adversary_defense",
                "mix_id": 1,
                "seed": 0,
                "rows": rows,
            },
            handle,
            indent=2,
            sort_keys=True,
        )
        handle.write("\n")
    emit(f"adversary defense sweep -> {path}")
