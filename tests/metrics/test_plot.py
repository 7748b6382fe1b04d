"""Unit tests for the terminal plot renderers."""

import pytest

from repro.metrics.plot import CDF_WIDTH, SERIES_GLYPHS, render_bars, render_cdf


def ramp(start, step, count=50):
    return [(start + step * i, (i + 1) / count) for i in range(count)]


class TestRenderCdf:
    def test_empty_series(self):
        assert "(no data)" in render_cdf({})
        assert "(no data)" in render_cdf({"empty": []})

    def test_contains_axes_labels_and_legend(self):
        plot = render_cdf({"locals": ramp(0.03, 0.001)}, title="demo")
        assert plot.startswith("demo (ms)")
        assert "1.00 |" in plot
        assert "0.50 |" in plot
        assert "0.00 |" in plot
        assert "'#' locals" in plot

    def test_exactly_one_midpoint_label(self):
        plot = render_cdf({"a": ramp(0.0, 0.001)})
        assert plot.count("0.50 |") == 1

    def test_two_series_use_distinct_glyphs(self):
        plot = render_cdf({"fast": ramp(0.01, 0.0002), "slow": ramp(0.1, 0.0002)})
        assert SERIES_GLYPHS[0] in plot
        assert SERIES_GLYPHS[1] in plot
        assert "'#' fast" in plot and "':' slow" in plot

    def test_faster_series_sits_left_of_slower(self):
        plot = render_cdf(
            {"fast": ramp(0.01, 0.0002), "slow": ramp(0.2, 0.0002)}
        )
        top_rows = plot.splitlines()[1:4]
        # In the top rows (CDF ~1.0) the fast series has long since
        # saturated: its glyph must appear to the left of the slow one's.
        for row in top_rows:
            if "#" in row and ":" in row:
                assert row.index("#") < row.index(":")
                break
        else:
            pytest.fail("expected a row containing both series")

    def test_width_respected(self):
        plot = render_cdf({"a": ramp(0.0, 0.001)})
        body_rows = [line for line in plot.splitlines() if line.rstrip().endswith("#")]
        assert body_rows, "expected at least one populated row"
        assert all(len(line) <= CDF_WIDTH + 8 for line in plot.splitlines())

    def test_too_many_series_rejected(self):
        series = {f"s{i}": ramp(0.0, 0.001, 5) for i in range(len(SERIES_GLYPHS) + 1)}
        with pytest.raises(ValueError):
            render_cdf(series)

    def test_degenerate_single_point(self):
        plot = render_cdf({"point": [(0.05, 1.0)]})
        assert "1.00" in plot


class TestRenderBars:
    def test_empty(self):
        assert "(no data)" in render_bars({})

    def test_bars_scale_to_peak(self):
        plot = render_bars({"big": 100.0, "half": 50.0}, width=40)
        lines = plot.splitlines()
        big_bar = lines[0].count("#")
        half_bar = lines[1].count("#")
        assert big_bar == 40
        assert abs(half_bar - 20) <= 1

    def test_labels_aligned_and_units_shown(self):
        plot = render_bars({"a": 1.0, "longer-name": 2.0}, unit=" tps", title="T")
        lines = plot.splitlines()
        assert lines[0] == "T"
        assert lines[1].index("|") == lines[2].index("|")
        assert "tps" in plot

    def test_zero_values(self):
        plot = render_bars({"a": 0.0, "b": 0.0})
        assert "a" in plot and "b" in plot
