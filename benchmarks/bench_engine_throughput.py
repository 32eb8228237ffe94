"""Engine throughput: the vector engine vs the scalar one, server by server.

Not a paper figure - this benchmark prices the engine switch, the path
``--engine vector`` runs. The same fleet - Table II mixes cycled across N
servers, every app with unbounded work so the steady state never drains -
advances the same number of ticks as a Python loop of
:class:`~repro.server.server.SimulatedServer` objects, once per engine:

* **scalar** - ``engine="scalar"``: the golden reference the vector path
  is pinned to bit-for-bit;
* **vector** - ``engine="vector"``: every model query served from the
  cached response surfaces.

Each sizing row (10/100/1000 servers) re-checks the equivalence contract
(identical wall-power vector and psys energy counters after the run) so
the ratio is never quoted for a path that drifted. Whole mediated ticks
are priced by ``bench_mediator_throughput.py``.

The rows land in ``BENCH_engine.json`` (under ``$REPRO_BENCH_OUT`` when
set) so the committed numbers ride with the code; CI
compares a fresh run against the committed baseline and fails on a >20%
vector-throughput regression.
"""

from __future__ import annotations

import json
import time

import numpy as np

from benchmarks._tiny import out_path, pick
from repro.analysis.reporting import banner, format_table
from repro.server.config import DEFAULT_SERVER_CONFIG
from repro.server.server import SimulatedServer
from repro.workloads.mixes import get_mix

SIZES = pick((10, 100, 1000), (2,))
TICKS = pick(200, 20)
BENCH_SIZE = pick(100, 2)
DT_S = 0.1


def _run(n_servers: int, n_ticks: int, engine: str) -> tuple[float, np.ndarray, np.ndarray]:
    servers = []
    for i in range(n_servers):
        server = SimulatedServer(DEFAULT_SERVER_CONFIG, seed=0, engine=engine)
        mix = get_mix(1 + (i % 15)).profiles()
        for profile in sorted(mix, key=lambda p: p.name):
            server.admit(profile.with_total_work(float("inf")))
        servers.append(server)
    started = time.perf_counter()
    results = None
    for _ in range(n_ticks):
        results = [server.tick(DT_S) for server in servers]
    elapsed = time.perf_counter() - started
    wall = np.array([r.breakdown.wall_w for r in results])
    energy = np.array([s.rapl.read_energy_j("psys") for s in servers])
    return elapsed, wall, energy


def test_engine_throughput_trajectory(benchmark, emit):
    rows = []
    for n_servers in SIZES:
        scalar_s, s_wall, s_energy = _run(n_servers, TICKS, "scalar")
        if n_servers == BENCH_SIZE:
            vector_s, v_wall, v_energy = benchmark.pedantic(
                _run, args=(n_servers, TICKS, "vector"), rounds=1, iterations=1
            )
        else:
            vector_s, v_wall, v_energy = _run(n_servers, TICKS, "vector")
        # The ratio is only worth quoting while the contract holds.
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

    emit("\n" + banner(f"ENGINE THROUGHPUT: scalar vs vector servers, {TICKS} ticks"))
    emit(
        format_table(
            ["servers", "scalar ticks/s", "vector ticks/s", "speedup"],
            [
                [
                    row["n_servers"],
                    f"{row['scalar_ticks_per_s']:.0f}",
                    f"{row['vector_ticks_per_s']:.0f}",
                    f"{row['speedup']:.2f}x",
                ]
                for row in rows
            ],
        )
    )

    path = out_path("BENCH_engine.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {"benchmark": "bench_engine_throughput", "dt_s": DT_S, "rows": rows},
            handle,
            indent=2,
            sort_keys=True,
        )
        handle.write("\n")
    emit(f"engine throughput trajectory -> {path}")
