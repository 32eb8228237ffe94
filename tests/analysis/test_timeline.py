"""ASCII timeline rendering."""

import pytest

from repro.errors import ConfigurationError
from repro.analysis.timeline import (
    STRIP_WIDTH,
    render_modes,
    render_power_timeline,
    render_series,
)
from repro.core.coordinator import CoordinationMode
from repro.core.mediator import TickRecord


def record(t, wall, cap=100.0, apps=None, mode=CoordinationMode.SPACE):
    return TickRecord(
        time_s=t,
        p_cap_w=cap,
        wall_w=wall,
        mode=mode,
        app_power_w=apps or {},
        app_knobs={},
        progressed={},
        battery_soc=None,
    )


class TestRenderSeries:
    def test_basic_strip(self):
        text = render_series("wall", [0.0, 1.0, 2.0], [10.0, 20.0, 30.0])
        assert text.startswith("        wall |")
        assert "peak 30.0" in text
        assert "[0s..2s]" in text

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            render_series("x", [], [])

    def test_mismatched_rejected(self):
        with pytest.raises(ConfigurationError):
            render_series("x", [0.0], [1.0, 2.0])

    def test_downsampling_preserves_strip_width(self):
        text = render_series("x", list(range(1000)), [1.0] * 1000)
        strip = text.split("|")[1]
        assert len(strip) == STRIP_WIDTH

    def test_zero_series_renders_blank(self):
        text = render_series("x", [0.0, 1.0], [0.0, 0.0])
        strip = text.split("|")[1]
        assert set(strip) == {" "}

    def test_ceiling_scales_glyphs(self):
        low = render_series("x", [0.0, 1.0], [5.0, 5.0], ceiling=100.0)
        high = render_series("x", [0.0, 1.0], [5.0, 5.0], ceiling=5.0)
        assert low.split("|")[1] != high.split("|")[1]


class TestRenderPowerTimeline:
    def test_includes_wall_and_apps(self):
        timeline = [
            record(t * 0.1, 90.0, apps={"kmeans": 15.0, "stream": 12.0})
            for t in range(50)
        ]
        text = render_power_timeline(timeline)
        assert "wall [W]" in text
        assert "kmeans" in text and "stream" in text
        assert "(cap 100 W)" in text

    def test_silent_apps_omitted(self):
        timeline = [record(t * 0.1, 70.0, apps={"idle-app": 0.0}) for t in range(20)]
        text = render_power_timeline(timeline)
        assert "idle-app" not in text

    def test_empty_timeline_rejected(self):
        with pytest.raises(ConfigurationError):
            render_power_timeline([])


class TestRenderModes:
    def test_mode_glyphs(self):
        timeline = [
            record(0.0, 90.0, mode=CoordinationMode.SPACE),
            record(0.1, 80.0, mode=CoordinationMode.TIME),
            record(0.2, 70.0, mode=CoordinationMode.ESD),
            record(0.3, 50.0, mode=CoordinationMode.IDLE),
        ]
        text = render_modes(timeline)
        for glyph in ("S", "T", "E", "."):
            assert glyph in text

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            render_modes([])

    def test_end_to_end_with_mediator(self, config):
        """The renderer consumes a real mediator timeline."""
        from repro.core.mediator import PowerMediator
        from repro.core.policies import make_policy
        from repro.server.server import SimulatedServer
        from repro.workloads.catalog import CATALOG

        server = SimulatedServer(config)
        mediator = PowerMediator(
            server, make_policy("app+res-aware"), 100.0, use_oracle_estimates=True
        )
        mediator.add_application(CATALOG["kmeans"].with_total_work(float("inf")))
        mediator.run_for(2.0)
        text = render_power_timeline(mediator.timeline)
        assert "kmeans" in text
        assert render_modes(mediator.timeline).count("S") > 0
