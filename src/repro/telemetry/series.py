"""Time-series primitives: ring buffers, rate trackers, EWMA.

These are the shared plumbing for everything that watches metrics over
time: the :class:`~repro.telemetry.sampler.TelemetrySampler` stores
each sampled scalar in a :class:`RingSeries`; the autoscale
``LoadMonitor`` turns registry counters into per-second rates with a
:class:`RateTracker` and smooths them with an :class:`Ewma` (replacing
the private ``_last``/``_ewma`` dict plumbing it grew up with); the
health monitor's MAD outlier test reads the same series.
"""

from __future__ import annotations

__all__ = ["RingSeries", "RateTracker", "Ewma", "median", "mad"]


class RingSeries:
    """A bounded (time, value) series: O(1) append, oldest dropped."""

    __slots__ = ("capacity", "_t", "_v", "_n", "_i")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._t = [0.0] * capacity
        self._v = [0.0] * capacity
        self._n = 0  # filled slots (<= capacity)
        self._i = 0  # next write position

    def append(self, t: float, value: float) -> None:
        self._t[self._i] = t
        self._v[self._i] = value
        self._i = (self._i + 1) % self.capacity
        if self._n < self.capacity:
            self._n += 1

    def __len__(self) -> int:
        return self._n

    def _start(self) -> int:
        return (self._i - self._n) % self.capacity

    def times(self) -> list[float]:
        start = self._start()
        return [self._t[(start + k) % self.capacity] for k in range(self._n)]

    def values(self) -> list[float]:
        start = self._start()
        return [self._v[(start + k) % self.capacity] for k in range(self._n)]

    def items(self) -> list[tuple[float, float]]:
        start = self._start()
        return [
            (self._t[(start + k) % self.capacity], self._v[(start + k) % self.capacity])
            for k in range(self._n)
        ]

    def last(self) -> tuple[float, float]:
        if not self._n:
            raise IndexError("empty series")
        last = (self._i - 1) % self.capacity
        return self._t[last], self._v[last]


class RateTracker:
    """Turn a monotonic counter into a per-second rate between reads.

    The first observation has no predecessor and returns ``None`` —
    callers treat that as "no sample yet", exactly as the load monitor
    always has.
    """

    __slots__ = ("_last",)

    def __init__(self) -> None:
        self._last: tuple[float, float] | None = None

    def update(self, now: float, value: float) -> float | None:
        last = self._last
        self._last = (now, value)
        if last is None:
            return None
        dt = now - last[0]
        if dt <= 0:
            return None
        return (value - last[1]) / dt


class Ewma:
    """Exponentially weighted moving average, seeded by the first value."""

    __slots__ = ("alpha", "_value")

    def __init__(self, alpha: float) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self._value: float | None = None

    def update(self, value: float) -> float:
        if self._value is None:
            self._value = value
        else:
            self._value = self.alpha * value + (1.0 - self.alpha) * self._value
        return self._value


def median(values: list[float]) -> float:
    """Median without numpy (health probes run on tiny replica sets)."""
    if not values:
        raise ValueError("median of empty list")
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def mad(values: list[float]) -> float:
    """Median absolute deviation — the robust spread estimator behind
    the gray-failure outlier test (degenerates to 0 when a majority of
    replicas agree exactly, which is why thresholds carry a floor)."""
    m = median(values)
    return median([abs(v - m) for v in values])
