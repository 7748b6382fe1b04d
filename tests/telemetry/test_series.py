"""RingSeries / RateTracker / Ewma — the shared series plumbing."""

import pytest

from repro.telemetry import Ewma, RateTracker, RingSeries, mad, median


class TestRingSeries:
    def test_append_and_read_in_order(self):
        series = RingSeries(8)
        for i in range(5):
            series.append(float(i), float(i * 10))
        assert len(series) == 5
        assert series.times() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert series.values() == [0.0, 10.0, 20.0, 30.0, 40.0]
        assert series.last() == (4.0, 40.0)

    def test_capacity_bounds_memory_keeping_newest(self):
        series = RingSeries(4)
        for i in range(10):
            series.append(float(i), float(i))
        assert len(series) == 4
        assert series.values() == [6.0, 7.0, 8.0, 9.0]
        assert series.items()[0] == (6.0, 6.0)

    def test_empty_series(self):
        series = RingSeries(4)
        assert len(series) == 0
        assert series.values() == []
        with pytest.raises(IndexError):
            series.last()


class TestRateTracker:
    def test_first_observation_has_no_rate(self):
        tracker = RateTracker()
        assert tracker.update(1.0, 100.0) is None

    def test_rate_between_observations(self):
        tracker = RateTracker()
        tracker.update(0.0, 0.0)
        assert tracker.update(2.0, 50.0) == 25.0
        assert tracker.update(3.0, 50.0) == 0.0

    def test_zero_elapsed_yields_none(self):
        tracker = RateTracker()
        tracker.update(1.0, 10.0)
        assert tracker.update(1.0, 20.0) is None


class TestEwma:
    def test_first_value_seeds(self):
        ewma = Ewma(0.5)
        assert ewma.update(100.0) == 100.0

    def test_smoothing(self):
        ewma = Ewma(0.5)
        ewma.update(100.0)
        assert ewma.update(1000.0) == 0.5 * 1000.0 + 0.5 * 100.0

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            Ewma(0.0)
        with pytest.raises(ValueError):
            Ewma(1.5)


class TestRobustStats:
    def test_median(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
        with pytest.raises(ValueError):
            median([])

    def test_mad_degenerates_with_agreeing_majority(self):
        # Two healthy replicas agreeing exactly drive MAD to 0 — the
        # reason every health threshold carries an absolute floor.
        assert mad([0.0, 0.0, 14.0]) == 0.0
        assert mad([1.0, 5.0, 9.0]) == 4.0
