"""`TelemetrySampler`: periodic registry snapshots into ring series.

The sampler owns the *time* dimension of telemetry: every ``interval``
it snapshots each attached node's :class:`MetricRegistry` and appends
the scalars into per-``(node, metric)`` :class:`RingSeries`.  Histogram
snapshots are expanded into derived scalar series (``name:p50``,
``:p99``, ``:p999``, ``:count``, ``:sum``) so downstream consumers —
the dashboard, JSONL export, the health monitor — only ever see flat
``{metric: number}`` dicts.

The clock is injected: the harness passes the sim clock
(``lambda: world.now``) and arms the tick on the sim kernel, while a
process on ``AioTransport`` passes ``time.monotonic`` and arms on the
event loop's ``set_timer`` — both schedulers share the
``schedule(delay, callback)`` shape, so :meth:`arm` works with either.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.telemetry.config import TelemetryConfig
from repro.telemetry.instruments import HistogramSnapshot
from repro.telemetry.registry import MetricRegistry
from repro.telemetry.series import RingSeries

__all__ = ["TelemetrySampler"]

#: hook(t, {node: {metric: scalar}}) — called after every sample.
SampleHook = Callable[[float, dict[str, dict[str, float]]], None]


class TelemetrySampler:
    def __init__(
        self,
        config: TelemetryConfig | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.config = config or TelemetryConfig()
        self._clock = clock or (lambda: 0.0)
        self.registries: dict[str, MetricRegistry] = {}
        #: node -> metric (or derived ``hist:pXX``) -> ring series.
        self.series: dict[str, dict[str, RingSeries]] = {}
        self.samples_taken = 0
        self._hooks: list[SampleHook] = []
        self._schedule: Callable[..., Any] | None = None

    # -- membership -----------------------------------------------------
    def attach(self, node: str, registry: MetricRegistry) -> None:
        """Start sampling ``registry`` as ``node`` (idempotent)."""
        self.registries[node] = registry
        self.series.setdefault(node, {})

    def on_sample(self, hook: SampleHook) -> None:
        self._hooks.append(hook)

    # -- sampling -------------------------------------------------------
    def _series(self, node: str, metric: str) -> RingSeries:
        per_node = self.series.setdefault(node, {})
        series = per_node.get(metric)
        if series is None:
            series = per_node[metric] = RingSeries(self.config.capacity)
        return series

    def sample(self) -> float:
        """Snapshot every attached registry now; returns the sample time."""
        t = self._clock()
        flat: dict[str, dict[str, float]] = {}
        for node, registry in self.registries.items():
            values: dict[str, float] = {}
            for name, value in registry.snapshot().items():
                if isinstance(value, HistogramSnapshot):
                    values[f"{name}:p50"] = value.p50
                    values[f"{name}:p99"] = value.p99
                    values[f"{name}:p999"] = value.p999
                    values[f"{name}:count"] = value.count
                    values[f"{name}:sum"] = value.total
                else:
                    values[name] = value
            for metric, scalar in values.items():
                self._series(node, metric).append(t, scalar)
            flat[node] = values
        self.samples_taken += 1
        for hook in self._hooks:
            hook(t, flat)
        return t

    # -- periodic ticking ----------------------------------------------
    def arm(self, schedule: Callable[..., Any]) -> None:
        """Start the periodic tick on ``schedule(delay, callback)`` —
        the sim kernel's ``schedule`` or an aio runtime's ``set_timer``.
        Idempotent."""
        if self._schedule is not None:
            return
        self._schedule = schedule
        schedule(self.config.interval, self._tick)

    def _tick(self) -> None:
        self.sample()
        self._schedule(self.config.interval, self._tick)

    # -- reading --------------------------------------------------------
    def latest(self, node: str, metric: str) -> float | None:
        series = self.series.get(node, {}).get(metric)
        if series is None or not len(series):
            return None
        return series.last()[1]
