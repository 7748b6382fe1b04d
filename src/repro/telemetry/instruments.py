"""Typed metric instruments: counters, gauges, log-linear histograms.

Three instrument kinds, all declared through a :class:`MetricSpec` so
every metric carries name/unit/help metadata from birth (the exporters
and the docs check read it back):

* :class:`Counter` — a monotonically increasing integer, *bound* to a
  zero-argument reader, which is how the §19 registry retrofits the
  pre-existing ``ServerStats`` attributes without touching a single
  hot-path increment.
* :class:`Gauge` — a point-in-time scalar, bound the same way.
* :class:`LogLinearHistogram` — a distribution sketch that answers
  p50/p99/p999 without storing samples.

The histogram's bucketing is the standard log-linear scheme (HdrHistogram,
DDSketch's cousin): each power-of-two octave ``[2^k, 2^(k+1))`` is cut
into :data:`SUBBUCKETS` equal linear slices, so a quantile estimate is
off by at most one slice — a documented **relative error of at most
``1/SUBBUCKETS``** (3.125%), over-estimating only (the estimate is the
bucket's upper edge, clamped to the observed maximum).
``tests/telemetry/test_histogram.py`` holds this bound as a hypothesis
property.  Buckets are a sparse ``dict`` keyed by
``octave * SUBBUCKETS + slice``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "MetricSpec",
    "Counter",
    "Gauge",
    "LogLinearHistogram",
    "HistogramSnapshot",
]

#: Values below this observe into the underflow bucket and report as 0.
MIN_TRACKABLE = 1e-9
#: Linear slices per power-of-two octave: the relative-error bound is
#: ``1/SUBBUCKETS``.
SUBBUCKETS = 32


@dataclass(frozen=True)
class MetricSpec:
    """Declaration-time metadata for one metric."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    unit: str
    help: str
    #: For counters retrofitted from ``server_stats()``: the legacy wire
    #: key this metric serves (``MetricRegistry.wire_counters``).
    wire: str | None = None


class Counter:
    """A monotonic counter bound to a reader."""

    __slots__ = ("spec", "_fn")

    def __init__(self, spec: MetricSpec, fn: Callable[[], int]) -> None:
        self.spec = spec
        self._fn = fn

    def read(self) -> int:
        return int(self._fn())


class Gauge:
    """A point-in-time scalar bound to a reader."""

    __slots__ = ("spec", "_fn")

    def __init__(self, spec: MetricSpec, fn: Callable[[], float]) -> None:
        self.spec = spec
        self._fn = fn

    def read(self) -> float:
        return self._fn()


@dataclass(frozen=True)
class HistogramSnapshot:
    """One sampling instant's view of a histogram (plain scalars)."""

    count: int
    total: float
    min: float
    max: float
    p50: float
    p99: float
    p999: float


class LogLinearHistogram:
    """Log-linear distribution sketch (see module docstring)."""

    __slots__ = ("spec", "_buckets", "_zero", "_count", "_total", "_min", "_max")

    def __init__(self, spec: MetricSpec) -> None:
        self.spec = spec
        self._buckets: dict[int, int] = {}
        self._zero = 0  # underflow bucket: values < MIN_TRACKABLE
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = 0.0

    # -- recording ------------------------------------------------------
    def observe(self, value: float) -> None:
        self._count += 1
        self._total += value
        if value > self._max:
            self._max = value
        if value < self._min:
            self._min = value
        if value < MIN_TRACKABLE:
            self._zero += 1
            return
        # value = m * 2^e with 0.5 <= m < 1  =>  octave e-1, linear slice
        # of (m - 0.5) * 2 within it.
        m, e = math.frexp(value)
        key = (e - 1) * SUBBUCKETS + int((m - 0.5) * 2.0 * SUBBUCKETS)
        buckets = self._buckets
        buckets[key] = buckets.get(key, 0) + 1

    # -- reading --------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    def _bucket_upper(self, key: int) -> float:
        octave, slice_ = divmod(key, SUBBUCKETS)
        return math.ldexp(1.0 + (slice_ + 1) / SUBBUCKETS, octave)

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile: the upper edge of the bucket holding
        the rank ``max(1, ceil(q * count))`` sample, clamped to the
        observed maximum — within ``1/SUBBUCKETS`` relative error."""
        if self._count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self._count))
        seen = self._zero
        if seen >= rank:
            return 0.0
        for key in sorted(self._buckets):
            seen += self._buckets[key]
            if seen >= rank:
                return min(self._bucket_upper(key), self._max)
        return self._max  # unreachable unless counts drifted

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """(upper_edge, cumulative_count) pairs for OpenMetrics export."""
        out: list[tuple[float, int]] = []
        seen = self._zero
        if self._zero:
            out.append((MIN_TRACKABLE, seen))
        for key in sorted(self._buckets):
            seen += self._buckets[key]
            out.append((self._bucket_upper(key), seen))
        return out

    def snapshot(self) -> HistogramSnapshot:
        return HistogramSnapshot(
            count=self._count,
            total=self._total,
            min=self.min,
            max=self._max,
            p50=self.quantile(0.50),
            p99=self.quantile(0.99),
            p999=self.quantile(0.999),
        )
