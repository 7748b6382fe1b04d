"""Property tests for the log-linear histogram.

The load-bearing claim of the instruments module's docstring:

quantile estimates are within the documented relative-error bound of
``1/SUBBUCKETS`` vs the exact sample quantile, over-estimating only.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import HistogramSnapshot, LogLinearHistogram, MetricSpec
from repro.telemetry.instruments import SUBBUCKETS


def make_hist() -> LogLinearHistogram:
    spec = MetricSpec(name="h", kind="histogram", unit="seconds", help="")
    return LogLinearHistogram(spec)


def exact_quantile(values: list[float], q: float) -> float:
    """The definition the sketch approximates: the rank
    ``max(1, ceil(q * n))`` smallest sample."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


values_strategy = st.lists(
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=300,
)


class TestQuantileBound:
    @given(values=values_strategy)
    @settings(max_examples=200)
    def test_estimate_within_documented_relative_error(self, values):
        hist = make_hist()
        for v in values:
            hist.observe(v)
        for q in (0.5, 0.9, 0.99, 0.999):
            exact = exact_quantile(values, q)
            estimate = hist.quantile(q)
            # Over-estimate only, by at most one linear slice of the
            # octave: relative error <= 1/SUBBUCKETS.
            assert estimate >= exact * (1 - 1e-12)
            assert estimate <= exact * (1 + 1.0 / SUBBUCKETS) * (1 + 1e-9)

    @given(values=values_strategy)
    @settings(max_examples=50)
    def test_count_total_min_max_are_exact(self, values):
        hist = make_hist()
        for v in values:
            hist.observe(v)
        assert hist.count == len(values)
        assert math.isclose(hist.total, sum(values), rel_tol=1e-9)
        assert hist.min == min(values)
        assert hist.snapshot().max == max(values)

    def test_empty_histogram(self):
        hist = make_hist()
        assert hist.quantile(0.99) == 0.0
        assert hist.count == 0
        assert hist.snapshot() == HistogramSnapshot(
            count=0, total=0.0, min=0.0, max=0.0, p50=0.0, p99=0.0, p999=0.0
        )

    def test_underflow_bucket(self):
        hist = make_hist()
        for _ in range(10):
            hist.observe(0.0)
        hist.observe(4.0)
        assert hist.quantile(0.5) == 0.0
        assert hist.quantile(0.999) >= 4.0
