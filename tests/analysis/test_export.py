"""Result export: JSON/CSV serialization."""

import csv
import json

import pytest

from repro.errors import ConfigurationError
from repro.analysis.export import comparison_to_csv, results_to_json, timeline_to_csv
from repro.core.simulation import MixExperimentResult


def result(mix_id=1, policy="util-unaware"):
    return MixExperimentResult(
        mix_id=mix_id,
        policy=policy,
        p_cap_w=100.0,
        normalized_throughput={"a": 0.7, "b": 0.6},
        power_share={"a": 0.45, "b": 0.55},
        server_throughput=1.3,
        mean_wall_power_w=98.5,
    )


class TestJson:
    def test_dataclass_round_trip(self, tmp_path):
        path = tmp_path / "r.json"
        results_to_json(result(), path)
        data = json.loads(path.read_text())
        assert data["policy"] == "util-unaware"
        assert data["normalized_throughput"]["a"] == 0.7

    def test_nested_comparison(self, tmp_path):
        comparison = {1: {"util-unaware": result(), "app+res-aware": result(policy="app+res-aware")}}
        path = tmp_path / "c.json"
        results_to_json(comparison, path)
        data = json.loads(path.read_text())
        assert set(data["1"]) == {"util-unaware", "app+res-aware"}

    def test_numpy_scalars_serialized(self, tmp_path):
        import numpy as np

        path = tmp_path / "n.json"
        results_to_json({"value": np.float64(1.5), "count": np.int64(3)}, path)
        data = json.loads(path.read_text())
        assert data == {"value": 1.5, "count": 3}

    def test_calibration_points(self, tmp_path, config):
        from repro.learning.crossval import calibrate_sampling_fraction
        from repro.workloads.catalog import CATALOG

        points = calibrate_sampling_fraction(
            config, list(CATALOG.values()), [0.05], seed=1
        )
        path = tmp_path / "cal.json"
        results_to_json(points, path)
        data = json.loads(path.read_text())
        assert data[0]["fraction"] == 0.05


class TestCsv:
    def test_comparison_long_format(self, tmp_path):
        comparison = {
            1: {"util-unaware": result()},
            2: {"util-unaware": result(mix_id=2)},
        }
        path = tmp_path / "c.csv"
        comparison_to_csv(comparison, path)
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == 4  # 2 mixes x 1 policy x 2 apps
        assert rows[0]["app"] == "a"
        assert float(rows[0]["power_share"]) == 0.45

    def test_empty_comparison_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            comparison_to_csv({}, tmp_path / "x.csv")

    def test_timeline_csv(self, tmp_path, config):
        from repro.core.mediator import PowerMediator
        from repro.core.policies import make_policy
        from repro.server.server import SimulatedServer
        from repro.workloads.catalog import CATALOG

        server = SimulatedServer(config)
        mediator = PowerMediator(
            server, make_policy("app+res-aware"), 100.0, use_oracle_estimates=True
        )
        mediator.add_application(CATALOG["kmeans"].with_total_work(float("inf")))
        mediator.run_for(1.0)
        path = tmp_path / "t.csv"
        timeline_to_csv(mediator.timeline, path)
        rows = list(csv.DictReader(path.open()))
        server_rows = [r for r in rows if r["app"] == "_server"]
        app_rows = [r for r in rows if r["app"] == "kmeans"]
        assert len(server_rows) == 10
        assert len(app_rows) == 10
        assert all(float(r["power_w"]) <= 100.0 for r in server_rows)

    def test_empty_timeline_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            timeline_to_csv([], tmp_path / "x.csv")
