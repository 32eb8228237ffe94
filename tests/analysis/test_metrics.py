"""Metric aggregation over experiment results."""

import pytest

from repro.errors import ConfigurationError
from repro.analysis.metrics import (
    mean_server_throughput,
    power_split_stats,
    summarize_policies,
)
from repro.core.simulation import MixExperimentResult


def result(mix_id, policy, throughput, shares=None, cap=100.0):
    shares = shares if shares is not None else {"a": 0.5, "b": 0.5}
    per_app = {name: throughput / 2 for name in shares}
    return MixExperimentResult(
        mix_id=mix_id,
        policy=policy,
        p_cap_w=cap,
        normalized_throughput=per_app,
        power_share=shares,
        server_throughput=throughput,
        mean_wall_power_w=95.0,
    )


class TestMeans:
    def test_mean_server_throughput(self):
        results = {1: result(1, "p", 1.0), 2: result(2, "p", 2.0)}
        assert mean_server_throughput(results) == pytest.approx(1.5)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            mean_server_throughput({})


class TestPowerSplits:
    def test_mean_split(self):
        results = {
            1: result(1, "p", 1.0, {"a": 0.4, "b": 0.6}),
            2: result(2, "p", 1.0, {"a": 0.45, "b": 0.55}),
        }
        low, high = power_split_stats(results)
        assert low == pytest.approx(0.425)
        assert high == pytest.approx(0.575)

    def test_temporal_mixes_skipped(self):
        results = {
            1: result(1, "p", 1.0, {"a": 0.0, "b": 0.0}),  # duty-cycled
            2: result(2, "p", 1.0, {"a": 0.4, "b": 0.6}),
        }
        low, high = power_split_stats(results)
        assert low == pytest.approx(0.4)

    def test_all_temporal_defaults_to_even(self):
        results = {1: result(1, "p", 1.0, {"a": 0.0, "b": 0.0})}
        assert power_split_stats(results) == (0.5, 0.5)


class TestSummaries:
    def make_comparison(self):
        return {
            1: {
                "util-unaware": result(1, "util-unaware", 1.0),
                "app+res-aware": result(1, "app+res-aware", 1.2, {"a": 0.45, "b": 0.55}),
            },
            2: {
                "util-unaware": result(2, "util-unaware", 1.0),
                "app+res-aware": result(2, "app+res-aware", 1.3, {"a": 0.4, "b": 0.6}),
            },
        }

    def test_summaries(self):
        summaries = summarize_policies(self.make_comparison())
        assert summaries["util-unaware"].speedup_vs_baseline == pytest.approx(1.0)
        assert summaries["app+res-aware"].speedup_vs_baseline == pytest.approx(1.25)
        assert summaries["app+res-aware"].mean_power_split[0] == pytest.approx(0.425)

    def test_missing_baseline_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize_policies(
                {
                    mid: {"app+res-aware": results["app+res-aware"]}
                    for mid, results in self.make_comparison().items()
                }
            )

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize_policies({})

    def test_mixed_caps_rejected(self):
        comparison = self.make_comparison()
        comparison[2]["util-unaware"] = result(2, "util-unaware", 1.0, cap=80.0)
        with pytest.raises(ConfigurationError):
            summarize_policies(comparison)
