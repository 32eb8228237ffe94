"""Shared fixtures for the figure-regeneration benchmarks.

Every benchmark both *measures* a representative unit of its pipeline (the
pytest-benchmark part) and *prints* the same rows/series the paper's table
or figure reports, so ``pytest benchmarks/ --benchmark-only`` leaves a
directly comparable record in its output. Absolute numbers come from our
simulated substrate; the shapes are what reproduce (see EXPERIMENTS.md).
"""

from __future__ import annotations

import json

import pytest

from benchmarks._tiny import out_path
from repro.core.utility import CandidateSet
from repro.observability.metrics import MetricsRegistry
from repro.server.config import ServerConfig
from repro.server.perf_model import PerformanceModel
from repro.server.power_model import PowerModel
from repro.workloads.catalog import CATALOG


@pytest.fixture(scope="session")
def config() -> ServerConfig:
    return ServerConfig()


@pytest.fixture(scope="session")
def perf_model(config) -> PerformanceModel:
    return PerformanceModel(config)


@pytest.fixture(scope="session")
def power_model(config, perf_model) -> PowerModel:
    return PowerModel(config, perf_model)


@pytest.fixture(scope="session")
def oracle_sets(config, power_model) -> dict[str, CandidateSet]:
    return {
        name: CandidateSet.from_models(profile, config, power_model=power_model)
        for name, profile in CATALOG.items()
    }


class MetricsSink:
    """Accumulates ``MixExperimentResult.metrics`` documents across benchmark
    runs and writes one merged JSON report (counters/gauges/histograms plus
    the aggregated per-phase profile) at session end."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.profile: dict[str, dict[str, float]] = {}
        self.runs = 0

    def record(self, metrics_doc: dict | None) -> None:
        if not metrics_doc:
            return
        doc = dict(metrics_doc)
        profile = doc.pop("profile", {})
        self.registry = self.registry.merge(MetricsRegistry.from_json(doc))
        for phase, stats in profile.items():
            if phase == "fast_path":
                continue  # tick counts, not a phase timer
            agg = self.profile.setdefault(
                phase, {"calls": 0, "total_s": 0.0, "max_s": 0.0}
            )
            agg["calls"] += stats["calls"]
            agg["total_s"] += stats["total_s"]
            agg["max_s"] = max(agg["max_s"], stats["max_s"])
        self.runs += 1

    def to_json(self) -> dict:
        doc = self.registry.to_json()
        doc["profile"] = {
            phase: {
                **stats,
                "mean_s": stats["total_s"] / stats["calls"] if stats["calls"] else 0.0,
            }
            for phase, stats in sorted(self.profile.items())
        }
        doc["runs_recorded"] = self.runs
        return doc


@pytest.fixture(scope="session")
def bench_metrics(emit):
    """Session-wide sink for per-run metrics documents.

    Benchmarks that drive the mediator call ``bench_metrics.record(
    result.metrics)``; the merged report - including the per-phase
    profiling section - lands in ``bench-metrics.json``, under
    ``$REPRO_BENCH_OUT`` when set, else in the invocation directory."""
    sink = MetricsSink()
    yield sink
    if sink.runs == 0:
        return
    path = out_path("bench-metrics.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sink.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    emit(f"benchmark metrics ({sink.runs} mediator runs) -> {path}")


@pytest.fixture(scope="session")
def emit(request):
    """Print straight to the terminal, bypassing pytest capture."""
    capmanager = request.config.pluginmanager.getplugin("capturemanager")

    def _emit(text: str) -> None:
        if capmanager is not None:
            with capmanager.global_and_fixture_disabled():
                print(text)
        else:
            print(text)

    return _emit
