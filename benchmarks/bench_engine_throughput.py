"""Engine throughput: the vectorized batch fast path vs the scalar loop.

Not a paper figure - this benchmark prices the engine switch (the
``engine="vector"`` fast path). The same fleet - Table II mixes cycled
across N servers, every app with unbounded work so the steady state never
drains - advances the same number of ticks two ways:

* **scalar** - one :class:`~repro.server.server.SimulatedServer` per mix,
  ticked in a Python loop: the golden reference the vector path is pinned
  to bit-for-bit;
* **vector** - one :class:`~repro.engine.BatchFleet` advancing the whole
  fleet's engine phase with a handful of array ops per tick.

Because the batch path's per-tick cost is dominated by numpy's fixed
per-op overhead, the speedup *grows* with fleet size - the trajectory
(10/100/1000 servers) is the point, and the acceptance bar is >= 10x at
100 servers. Each sizing row re-checks the equivalence contract (identical
wall-power vector and energy counters after the run) so the speedup is
never quoted for a path that drifted.

The rows land in ``BENCH_engine.json`` (under ``$REPRO_BENCH_OUT`` when
set) so the committed numbers ride with the code; CI
compares a fresh run against the committed baseline and fails on a >20%
vector-throughput regression.
"""

from __future__ import annotations

import json
import time

import numpy as np

from benchmarks._tiny import out_path, pick, tiny
from repro.analysis.reporting import banner, format_table
from repro.engine import BatchFleet
from repro.server.config import DEFAULT_SERVER_CONFIG
from repro.server.server import SimulatedServer
from repro.workloads.mixes import get_mix

SIZES = pick((10, 100, 1000), (2,))
TICKS = pick(200, 20)
BENCH_SIZE = pick(100, 2)
SOAK_SERVERS = pick(1000, 2)
SOAK_TICKS = pick(3000, 20)
DT_S = 0.1


def _mixes(n_servers: int) -> list[list]:
    return [
        [p.with_total_work(float("inf")) for p in get_mix(1 + (i % 15)).profiles()]
        for i in range(n_servers)
    ]


def _scalar_run(n_servers: int, n_ticks: int) -> tuple[float, np.ndarray, np.ndarray]:
    servers = []
    for mix in _mixes(n_servers):
        server = SimulatedServer(DEFAULT_SERVER_CONFIG, seed=0)
        for profile in sorted(mix, key=lambda p: p.name):
            server.admit(profile)
        servers.append(server)
    started = time.perf_counter()
    results = None
    for _ in range(n_ticks):
        results = [server.tick(DT_S) for server in servers]
    elapsed = time.perf_counter() - started
    wall = np.array([r.breakdown.wall_w for r in results])
    energy = np.array([s.rapl.read_energy_j("psys") for s in servers])
    return elapsed, wall, energy


def _vector_run(n_servers: int, n_ticks: int) -> tuple[float, np.ndarray, np.ndarray]:
    fleet = BatchFleet(DEFAULT_SERVER_CONFIG, mixes=_mixes(n_servers), dt_s=DT_S)
    started = time.perf_counter()
    fleet.advance(n_ticks)
    elapsed = time.perf_counter() - started
    return elapsed, fleet.wall_power_w(), fleet.energy_j()


def test_engine_throughput_trajectory(benchmark, emit):
    rows = []
    for n_servers in SIZES:
        scalar_s, s_wall, s_energy = _scalar_run(n_servers, TICKS)
        if n_servers == BENCH_SIZE:
            vector_s, v_wall, v_energy = benchmark.pedantic(
                _vector_run, args=(n_servers, TICKS), rounds=1, iterations=1
            )
        else:
            vector_s, v_wall, v_energy = _vector_run(n_servers, TICKS)
        # The speedup is only worth quoting while the contract holds.
        assert np.array_equal(s_wall, v_wall)
        assert np.array_equal(s_energy, v_energy)
        rows.append(
            {
                "n_servers": n_servers,
                "ticks": TICKS,
                "scalar_s": scalar_s,
                "vector_s": vector_s,
                "scalar_ticks_per_s": TICKS / scalar_s,
                "vector_ticks_per_s": TICKS / vector_s,
                "speedup": scalar_s / vector_s,
            }
        )

    soak_s, _, _ = _vector_run(SOAK_SERVERS, SOAK_TICKS)
    soak = {
        "n_servers": SOAK_SERVERS,
        "ticks": SOAK_TICKS,
        "sim_s": SOAK_TICKS * DT_S,
        "wall_clock_s": soak_s,
        "ticks_per_s": SOAK_TICKS / soak_s,
    }

    emit("\n" + banner(f"ENGINE THROUGHPUT: scalar loop vs BatchFleet, {TICKS} ticks"))
    emit(
        format_table(
            ["servers", "scalar ticks/s", "vector ticks/s", "speedup"],
            [
                [
                    row["n_servers"],
                    f"{row['scalar_ticks_per_s']:.0f}",
                    f"{row['vector_ticks_per_s']:.0f}",
                    f"{row['speedup']:.1f}x",
                ]
                for row in rows
            ],
        )
    )
    emit(
        f"soak: {soak['n_servers']} servers x {soak['ticks']} ticks "
        f"({soak['sim_s']:.0f} s simulated) in {soak['wall_clock_s']:.2f} s "
        f"wall-clock ({soak['ticks_per_s']:.0f} ticks/s)"
    )

    path = out_path("BENCH_engine.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "benchmark": "bench_engine_throughput",
                "dt_s": DT_S,
                "rows": rows,
                "soak": soak,
            },
            handle,
            indent=2,
            sort_keys=True,
        )
        handle.write("\n")
    emit(f"engine throughput trajectory -> {path}")

    if not tiny():
        by_size = {row["n_servers"]: row for row in rows}
        # The acceptance bar: >= 10x at 100 servers, growing with scale.
        assert by_size[100]["speedup"] >= 10.0
        speedups = [row["speedup"] for row in rows]
        assert speedups == sorted(speedups)
