"""Service throughput: what the streaming facade costs, and how it sheds.

Not a paper figure - this benchmark prices the service layer (PR 6). The
same open-loop configuration runs at a sweep of offered loads against a
fixed drain capacity, and each run reports:

* **ingest cmds/sec** - commands accepted through the bounded buffer per
  wall-clock second (the facade's end-to-end command throughput);
* **ticks/sec** - sim ticks executed per wall-clock second (how far the
  event loop is from the batch mediator's pace);
* **shed rate** - the fraction of accepted commands the ``shed-oldest``
  policy later evicted, the overload-graceful degradation curve: near
  zero while the drain keeps up, climbing smoothly as the offered load
  outruns it, never touching the cap-safety lane.

The swept rows land in ``BENCH_service.json`` (under ``$REPRO_BENCH_OUT``
when set) so the numbers are committed alongside the code
they price; the pytest-benchmark measurement covers the middle of the
sweep as the representative unit.
"""

from __future__ import annotations

import json
import time

from benchmarks._tiny import out_path, pick
from repro.analysis.reporting import banner, format_table
from repro.service import MediatorService, ServiceConfig

# The regular lane drains 2 commands/tick (20/s of sim time; 1/tick under
# overload), so the upper half of the sweep genuinely outruns the drain.
TICKS = pick(1200, 120)
RATES_PER_S = pick((0.5, 5.0, 25.0, 50.0), (0.5, 5.0, 50.0))
BENCH_RATE_PER_S = 5.0


def _config(rate_per_s: float) -> ServiceConfig:
    return ServiceConfig(
        rate_per_s=rate_per_s,
        clients=4,
        ingest_capacity=8,
        backpressure="shed-oldest",
        drain_per_tick=2,
        overload_drain_per_tick=1,
        work_scale=0.05,
        cap_levels=(90.0, 110.0),
        cap_change_every_s=30.0,
        checkpoint_every_ticks=400,
        telemetry_every_ticks=50,
    )


def _run(rate_per_s: float, workdir) -> dict:
    service = MediatorService(_config(rate_per_s), workdir)
    started = time.perf_counter()
    service.run_for_ticks(TICKS)
    elapsed_s = time.perf_counter() - started
    service.close()
    counters = dict(service.metrics.counters())
    accepted = counters.get("service.ingest.accepted", 0.0)
    accepted += counters.get("service.ingest.safety_accepted", 0.0)
    shed = counters.get("service.ingest.shed", 0.0)
    return {
        "rate_per_s": rate_per_s,
        "ticks": TICKS,
        "elapsed_s": elapsed_s,
        "accepted_cmds": accepted,
        "shed_cmds": shed,
        "safety_shed_cmds": counters.get("service.ingest.safety_shed", 0.0),
        "admitted_jobs": counters.get("service.admit.admitted", 0.0),
        "completed_jobs": counters.get("service.jobs.completed", 0.0),
        "ticks_per_s": TICKS / elapsed_s,
        "ingest_cmds_per_s": accepted / elapsed_s,
        "shed_rate": shed / accepted if accepted else 0.0,
    }


def test_service_throughput_vs_offered_load(benchmark, emit, tmp_path):
    rows = []
    for rate in RATES_PER_S:
        if rate == BENCH_RATE_PER_S:
            row = benchmark.pedantic(
                lambda: _run(BENCH_RATE_PER_S, tmp_path / "bench"),
                rounds=1,
                iterations=1,
            )
        else:
            row = _run(rate, tmp_path / f"rate-{rate}")
        rows.append(row)
        # The safety lane must stay untouched at every offered load.
        assert row["safety_shed_cmds"] == 0

    # The overload-graceful shape: shedding is monotone in offered load,
    # absent while the drain keeps up, and present once the load outruns it.
    assert rows[0]["shed_rate"] == 0.0
    assert rows[-1]["shed_rate"] > 0.0
    sheds = [row["shed_rate"] for row in rows]
    assert sheds == sorted(sheds)

    emit(banner(f"service throughput, {TICKS} ticks per offered load"))
    emit(
        format_table(
            ["rate/s", "cmds in", "shed", "shed rate", "ticks/s", "cmds/s"],
            [
                [
                    row["rate_per_s"],
                    int(row["accepted_cmds"]),
                    int(row["shed_cmds"]),
                    f"{row['shed_rate']:.1%}",
                    f"{row['ticks_per_s']:.0f}",
                    f"{row['ingest_cmds_per_s']:.1f}",
                ]
                for row in rows
            ],
        )
    )

    path = out_path("BENCH_service.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "benchmark": "bench_service_throughput",
                "ticks_per_run": TICKS,
                "drain_per_tick": 2,
                "ingest_capacity": 8,
                "backpressure": "shed-oldest",
                "rows": rows,
            },
            handle,
            indent=2,
            sort_keys=True,
        )
        handle.write("\n")
    emit(f"service throughput sweep -> {path}")
