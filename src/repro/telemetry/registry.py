"""`MetricRegistry`: one node's declared metrics, with metadata.

A registry is declared once at construction time (``SdurServer``
builds its own in ``__init__`` via :mod:`repro.telemetry.wiring`) and
read many times: the :class:`~repro.telemetry.sampler.TelemetrySampler`
snapshots it on every tick, the exporters render it, and
``SdurCluster.server_stats()`` serves the legacy per-node counter dict
straight off it (:meth:`MetricRegistry.wire_counters`).

Declaring a metric is free on the hot path: counters and gauges are
*bound* to zero-argument readers (usually a ``lambda`` over an existing
``ServerStats`` attribute), so the server keeps its plain attribute
increments and the registry only evaluates the readers at sample time.
"""

from __future__ import annotations

from typing import Callable, Iterable, Union

from repro.errors import ConfigurationError
from repro.telemetry.instruments import (
    Counter,
    Gauge,
    HistogramSnapshot,
    LogLinearHistogram,
    MetricSpec,
)

__all__ = ["MetricRegistry"]

Instrument = Union[Counter, Gauge, LogLinearHistogram]


class MetricRegistry:
    """Declared, typed metrics for one node (insertion-ordered)."""

    def __init__(self, node: str) -> None:
        self.node = node
        self._metrics: dict[str, Instrument] = {}

    # -- declaration ----------------------------------------------------
    def _declare(self, name: str, instrument: Instrument) -> Instrument:
        if name in self._metrics:
            raise ConfigurationError(f"metric {name!r} declared twice on {self.node}")
        self._metrics[name] = instrument
        return instrument

    def counter(
        self,
        name: str,
        *,
        unit: str = "1",
        help: str = "",
        fn: Callable[[], int],
        wire: str | None = None,
    ) -> Counter:
        spec = MetricSpec(name=name, kind="counter", unit=unit, help=help, wire=wire)
        counter = Counter(spec, fn=fn)
        self._declare(name, counter)
        return counter

    def gauge(
        self,
        name: str,
        *,
        unit: str = "1",
        help: str = "",
        fn: Callable[[], float],
        wire: str | None = None,
    ) -> Gauge:
        spec = MetricSpec(name=name, kind="gauge", unit=unit, help=help, wire=wire)
        gauge = Gauge(spec, fn=fn)
        self._declare(name, gauge)
        return gauge

    def histogram(
        self,
        name: str,
        *,
        unit: str = "1",
        help: str = "",
    ) -> LogLinearHistogram:
        spec = MetricSpec(name=name, kind="histogram", unit=unit, help=help)
        hist = LogLinearHistogram(spec)
        self._declare(name, hist)
        return hist

    # -- reading --------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str) -> Instrument | None:
        return self._metrics.get(name)

    def specs(self) -> Iterable[MetricSpec]:
        for metric in self._metrics.values():
            yield metric.spec

    def value(self, name: str) -> float:
        """Current scalar value of a counter or gauge."""
        metric = self._metrics[name]
        if isinstance(metric, LogLinearHistogram):
            raise TypeError(f"{name} is a histogram; use snapshot()")
        return metric.read()

    def snapshot(self) -> dict[str, float | HistogramSnapshot]:
        """All current values, histograms as :class:`HistogramSnapshot`."""
        out: dict[str, float | HistogramSnapshot] = {}
        for name, metric in self._metrics.items():
            if isinstance(metric, LogLinearHistogram):
                out[name] = metric.snapshot()
            else:
                out[name] = metric.read()
        return out

    def wire_counters(self) -> dict[str, int]:
        """The legacy ``server_stats()`` dict: every metric declared with
        a ``wire=`` key, in declaration order, as plain ints — bit-
        identical to the hand-rolled dict it replaced (guarded by
        ``tests/telemetry/test_registry.py``)."""
        out: dict[str, int] = {}
        for name, metric in self._metrics.items():
            wire = metric.spec.wire
            if wire is not None:
                out[wire] = int(metric.read())
        return out
