"""Report formatting: tables, series, banners."""

import pytest

from repro.errors import ConfigurationError
from repro.analysis.reporting import BANNER_WIDTH, banner, format_series, format_table


class TestBanner:
    def test_contains_title(self):
        assert "Fig. 8" in banner("Fig. 8")

    def test_width(self):
        assert len(banner("x")) == BANNER_WIDTH


class TestTable:
    def test_basic_rendering(self):
        text = format_table(["mix", "value"], [[1, 0.5], [2, 1.25]])
        lines = text.splitlines()
        assert "mix" in lines[0] and "value" in lines[0]
        assert "0.500" in text and "1.250" in text

    def test_column_alignment(self):
        text = format_table(["a", "b"], [["xxxxx", 1.0]])
        header, rule, row = text.splitlines()
        assert len(header) == len(rule) == len(row)

    def test_custom_float_format(self):
        text = format_table(["v"], [[0.123456]], float_format="{:.1f}")
        assert "0.1" in text

    def test_ragged_row_rejected(self):
        with pytest.raises(ConfigurationError):
            format_table(["a", "b"], [[1]])

    def test_empty_rows_ok(self):
        text = format_table(["a"], [])
        assert "a" in text


class TestSeries:
    def test_pairs_rendered(self):
        text = format_series("rapl", [15, 30], [0.9, 0.5])
        assert "(15, 0.9000)" in text
        assert "(30, 0.5000)" in text
        assert "rapl" in text

    def test_labels(self):
        text = format_series("s", [1], [1.0], x_label="shave", y_label="perf")
        assert "shave -> perf" in text

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            format_series("s", [1, 2], [1.0])
