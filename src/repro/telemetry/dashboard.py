"""ASCII dashboard: per-node sparkline timelines over sampled series.

In the style of ``repro.obs.timeline``: plain text, one row per node,
aligned for terminals.  Counters render as per-interval *rates* (the
delta between consecutive samples), gauges and derived quantile series
render raw.  A node the health monitor holds ``degraded`` is marked
with ``!`` and its reason.

    >>> print(render_dashboard(sampler, metrics=["sdur_certified"]))
    == sdur_certified (rate/s) ==================================
    s1  ▁▃▅▇██████████████████  412.0/s
    s2  ▁▃▅▇██████████████████  408.5/s
    s3 !▁▃▅▂▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁   71.2/s  degraded: apply_lag ...
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.telemetry.sampler import TelemetrySampler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.telemetry.health import HealthMonitor

__all__ = ["sparkline", "render_dashboard"]

_BARS = "▁▂▃▄▅▆▇█"

#: Characters in one dashboard sparkline.
SPARK_WIDTH = 40


def sparkline(values: list[float]) -> str:
    """Render ``values`` as a fixed-width sparkline (downsampled by
    striding when longer than :data:`SPARK_WIDTH`; scaled to the series'
    range)."""
    if not values:
        return ""
    if len(values) > SPARK_WIDTH:
        stride = len(values) / SPARK_WIDTH
        values = [values[int(i * stride)] for i in range(SPARK_WIDTH)]
    lo = min(values)
    hi = max(values)
    span = hi - lo
    if span <= 0:
        return _BARS[0] * len(values)
    top = len(_BARS) - 1
    return "".join(_BARS[min(top, int((v - lo) / span * len(_BARS)))] for v in values)


def _rates(times: list[float], values: list[float]) -> list[float]:
    out = []
    for i in range(1, len(values)):
        dt = times[i] - times[i - 1]
        out.append((values[i] - values[i - 1]) / dt if dt > 0 else 0.0)
    return out


def render_dashboard(
    sampler: TelemetrySampler,
    metrics: list[str] | None = None,
    health: "HealthMonitor | None" = None,
) -> str:
    """One section per metric, one sparkline row per node."""
    metrics = metrics or ["sdur_certified", "sdur_queue_depth"]
    nodes = sorted(sampler.series)
    lines: list[str] = []
    name_width = max((len(n) for n in nodes), default=1)
    for metric in metrics:
        kind = None
        for node in nodes:
            registry = sampler.registries.get(node)
            if registry is not None and metric in registry:
                kind = registry.get(metric).spec.kind
                break
        as_rate = kind == "counter"
        title = f"{metric} (rate/s)" if as_rate else metric
        lines.append(f"== {title} ".ljust(name_width + SPARK_WIDTH + 14, "="))
        for node in nodes:
            series = sampler.series.get(node, {}).get(metric)
            if series is None:
                continue
            values = series.values()
            if as_rate:
                values = _rates(series.times(), values)
            current = values[-1] if values else 0.0
            status = health.nodes.get(node) if health is not None else None
            mark = "!" if status is not None and status.status == "degraded" else " "
            row = (
                f"{node:<{name_width}} {mark}{sparkline(values):<{SPARK_WIDTH}} "
                f"{current:>10.1f}" + ("/s" if as_rate else "  ")
            )
            if mark == "!":
                row += f"  degraded: {status.reason}"
            lines.append(row)
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
