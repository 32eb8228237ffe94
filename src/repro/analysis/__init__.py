"""Metric aggregation and table/series formatting for the benchmark harness.

* :mod:`~repro.analysis.metrics` - normalized-throughput aggregation,
  policy summaries, power-split statistics.
* :mod:`~repro.analysis.reporting` - plain-text tables and series printers
  the benchmarks use to emit the same rows the paper's figures plot.
"""

from repro.analysis.metrics import (
    mean_server_throughput,
    power_split_stats,
    summarize_policies,
    summarize_recovery,
    summarize_resilience,
    PolicySummary,
    RecoverySummary,
    ResilienceSummary,
)
from repro.analysis.reporting import format_table, format_series, banner
from repro.analysis.timeline import (
    render_power_timeline,
    render_series,
    render_modes,
)

__all__ = [
    "mean_server_throughput",
    "power_split_stats",
    "summarize_policies",
    "summarize_recovery",
    "summarize_resilience",
    "PolicySummary",
    "RecoverySummary",
    "ResilienceSummary",
    "format_table",
    "format_series",
    "banner",
    "render_power_timeline",
    "render_series",
    "render_modes",
]
