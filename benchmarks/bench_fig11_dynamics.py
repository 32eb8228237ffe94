"""Fig. 11: power re-allocation on application arrival and departure.

Regenerates both timelines:

* 11a - SSSP runs alone under a 100 W cap; X264 arrives at t = 20 s. The
  mediator re-calibrates and re-allocates (the paper's ~800 ms settling
  window is not modelled): SSSP's power drops (keeping frequency, shedding
  cores) and X264 receives the rest (keeping cores, shedding frequency).
* 11b - kmeans and PageRank share the cap; PageRank completes and departs;
  the Accountant's E3 triggers re-allocation and kmeans is uncapped.
"""

import pytest

from benchmarks._tiny import pick, tiny
from repro.analysis.reporting import banner, format_table
from repro.core.events import DepartureEvent
from repro.core.mediator import PowerMediator
from repro.core.policies import make_policy
from repro.server.server import SimulatedServer
from repro.workloads.catalog import CATALOG


ARRIVAL_S = pick(20.0, 3.0)
DEPART_RUN_S = pick(60.0, 10.0)
DEPART_WORK = pick(45.0, 3.0)


def timeline_samples(mediator, times):
    rows = []
    for t in times:
        record = min(mediator.timeline, key=lambda r: abs(r.time_s - t))
        apps = ", ".join(
            f"{n}={w:.1f}W{record.app_knobs[n]}" for n, w in sorted(record.app_power_w.items())
        )
        rows.append([f"{record.time_s:.1f}", f"{record.wall_w:.1f}", apps or "-"])
    return rows


def test_fig11a_arrival(benchmark, config, emit, bench_metrics):
    def run():
        server = SimulatedServer(config)
        mediator = PowerMediator(
            server, make_policy("app+res-aware"), 100.0, use_oracle_estimates=True
        )
        sssp = CATALOG["sssp"].with_total_work(float("inf"))
        x264 = CATALOG["x264"].with_total_work(float("inf"))
        mediator.add_application(sssp)
        mediator.run_for(ARRIVAL_S)
        mediator.add_application(x264)
        mediator.run_for(ARRIVAL_S)
        return mediator

    mediator = benchmark.pedantic(run, rounds=1, iterations=1)
    bench_metrics.record(mediator.export_metrics())
    emit("\n" + banner(f"FIG 11a: X264 arrives at t = {ARRIVAL_S:.0f} s (P_cap = 100 W)"))
    emit(
        format_table(
            ["t [s]", "wall [W]", "apps (power, knob)"],
            timeline_samples(
                mediator,
                [
                    ARRIVAL_S * 0.25,
                    ARRIVAL_S - 0.5,
                    ARRIVAL_S + 2.0,
                    2.0 * ARRIVAL_S - 1.0,
                ],
            ),
        )
    )
    before = min(
        mediator.timeline, key=lambda r: abs(r.time_s - (ARRIVAL_S - 0.5))
    )
    after = mediator.timeline[-1]
    emit(
        f"sssp power {before.app_power_w['sssp']:.1f} -> "
        f"{after.app_power_w['sssp']:.1f} W (paper: 25 -> 12 W); "
        f"x264 gets {after.app_power_w['x264']:.1f} W (paper: 18 W)"
    )
    sssp_knob = after.app_knobs["sssp"]
    x264_knob = after.app_knobs["x264"]
    emit(
        f"sssp knob: {sssp_knob} (paper: keeps 2 GHz, 6 -> 3 cores); "
        f"x264 knob: {x264_knob} (paper: keeps cores, 2 -> 1.4 GHz)"
    )
    assert after.app_power_w["sssp"] < before.app_power_w["sssp"] - 4.0
    assert sssp_knob.freq_ghz >= 1.8 and sssp_knob.cores <= 4
    assert x264_knob.cores >= 5 and x264_knob.freq_ghz <= 1.7


def test_fig11b_departure(benchmark, config, emit, bench_metrics):
    def run():
        server = SimulatedServer(config)
        mediator = PowerMediator(
            server, make_policy("app+res-aware"), 100.0, use_oracle_estimates=True
        )
        kmeans = CATALOG["kmeans"].with_total_work(float("inf"))
        pagerank = CATALOG["pagerank"].with_total_work(DEPART_WORK)
        mediator.add_application(kmeans)
        mediator.add_application(pagerank)
        mediator.run_for(DEPART_RUN_S)
        return mediator

    mediator = benchmark.pedantic(run, rounds=1, iterations=1)
    bench_metrics.record(mediator.export_metrics())
    departure_t = next(
        e.time_s
        for e in mediator.accountant.event_log
        if isinstance(e, DepartureEvent)
    )
    emit("\n" + banner("FIG 11b: PageRank departs (P_cap = 100 W)"))
    emit(f"pagerank completed at t = {departure_t:.1f} s")
    emit(
        format_table(
            ["t [s]", "wall [W]", "apps (power, knob)"],
            timeline_samples(
                mediator,
                [
                    departure_t - 5.0,
                    departure_t - 0.5,
                    departure_t + 2.0,
                    DEPART_RUN_S - 1.0,
                ],
            ),
        )
    )
    before = min(mediator.timeline, key=lambda r: abs(r.time_s - (departure_t - 1.0)))
    after = mediator.timeline[-1]
    shares_before = before.app_power_w
    emit(
        f"pre-departure split: kmeans {shares_before.get('kmeans', 0):.1f} W, "
        f"pagerank {shares_before.get('pagerank', 0):.1f} W "
        "(paper: 45%-55% in PageRank's favour)"
    )
    emit(
        f"post-departure: kmeans {after.app_power_w['kmeans']:.1f} W at "
        f"{after.app_knobs['kmeans']} (uncapped)"
    )
    assert shares_before.get("pagerank", 0) > shares_before.get("kmeans", 0)
    assert after.app_knobs["kmeans"] == config.max_knob
    assert after.app_power_w["kmeans"] > shares_before.get("kmeans", 0) + 3.0
