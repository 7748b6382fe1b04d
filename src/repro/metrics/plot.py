"""Terminal plots: ASCII CDFs and bar charts for experiment output.

The paper's Figure 2 reports latency CDFs; these render the same series
as monospace plots so the benchmark output reproduces the figure without
any plotting dependency.

Example::

    latency CDF (ms)
    1.00 |                 ....:::::::::::::#########
         |            ..###
    0.50 |        .#:
         |      .#
    0.00 |___.#______________________________________
          30        60        90        120      150
    series: '#' locals-10%   ':' globals-10%   '.' locals-0%
"""

from __future__ import annotations

from bisect import bisect_right

#: Glyphs assigned to series, in order.
SERIES_GLYPHS = "#:.*+o@%"

#: Rows and columns of a CDF plot.
CDF_HEIGHT = 14
CDF_WIDTH = 64


def render_cdf(
    series: dict[str, list[tuple[float, float]]],
    title: str = "latency CDF",
) -> str:
    """Render named CDF point-lists (seconds, fraction) as an ASCII plot
    with its x axis in milliseconds.

    Series are drawn in order; later series overdraw earlier ones where
    they collide, which reads fine for the paper's well-separated curves.
    """
    populated = {name: pts for name, pts in series.items() if pts}
    if not populated:
        return f"{title}: (no data)"
    if len(populated) > len(SERIES_GLYPHS):
        raise ValueError(f"at most {len(SERIES_GLYPHS)} series supported")
    x_max = max(pts[-1][0] for pts in populated.values())
    x_min = min(pts[0][0] for pts in populated.values())
    if x_max <= x_min:
        x_max = x_min + 1e-9
    height = CDF_HEIGHT
    width = CDF_WIDTH
    grid = [[" "] * width for _ in range(height)]

    def fraction_at(points: list[tuple[float, float]], x: float) -> float | None:
        """CDF value at x (step interpolation); None left of the support."""
        values = [p[0] for p in points]
        index = bisect_right(values, x)
        if index == 0:
            return None
        return points[index - 1][1]

    for (name, points), glyph in zip(populated.items(), SERIES_GLYPHS):
        for column in range(width):
            x = x_min + (x_max - x_min) * column / (width - 1)
            fraction = fraction_at(points, x)
            if fraction is None:
                continue
            row = height - 1 - min(height - 1, int(fraction * (height - 1) + 0.5))
            grid[row][column] = glyph

    lines = [f"{title} (ms)"]
    midpoint_row = round((height - 1) / 2)
    for row_index, row in enumerate(grid):
        if row_index == 0:
            label = "1.00"
        elif row_index == height - 1:
            label = "0.00"
        elif row_index == midpoint_row:
            label = "0.50"
        else:
            label = "    "
        lines.append(f"{label} |{''.join(row)}")
    # X axis with 5 tick labels.
    axis = " " * 5 + "+" + "-" * width
    lines.append(axis)
    ticks = []
    for i in range(5):
        x = x_min + (x_max - x_min) * i / 4
        ticks.append(f"{x * 1000:.0f}")
    positions = [int(i * (width - 1) / 4) for i in range(5)]
    tick_line = [" "] * (width + 6)
    for pos, text in zip(positions, ticks):
        start = min(6 + pos, len(tick_line) - len(text))
        for offset, char in enumerate(text):
            if start + offset < len(tick_line):
                tick_line[start + offset] = char
    lines.append("".join(tick_line))
    legend = "   ".join(
        f"'{glyph}' {name}" for (name, _), glyph in zip(populated.items(), SERIES_GLYPHS)
    )
    lines.append(f"series: {legend}")
    return "\n".join(lines)


def render_bars(
    values: dict[str, float],
    width: int = 50,
    unit: str = "",
    title: str = "",
) -> str:
    """Horizontal bar chart for quick throughput/latency comparisons."""
    if not values:
        return f"{title}: (no data)"
    peak = max(values.values()) or 1.0
    label_width = max(len(name) for name in values)
    lines = [title] if title else []
    for name, value in values.items():
        bar = "#" * max(0, int(width * value / peak))
        lines.append(f"{name.ljust(label_width)} |{bar} {value:g}{unit}")
    return "\n".join(lines)
