"""Load shapes and the hot-key storm workload (repro.workload.overload)."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.workload.microbench import MicroBenchmark
from repro.workload.overload import ConstantRate, FlashCrowd, HotKeyStorm

HOT = ("0/hot-a", "0/hot-b", "0/hot-c")


class TestConstantRate:
    def test_rate_is_flat(self):
        shape = ConstantRate(40.0)
        assert [shape.rate(t) for t in (0.0, 1.0, 1e6)] == [40.0, 40.0, 40.0]

    def test_zero_allowed_negative_rejected(self):
        assert ConstantRate(0.0).rate(5.0) == 0.0
        with pytest.raises(ConfigurationError):
            ConstantRate(-1.0)


class TestFlashCrowd:
    def test_step_shape_boundaries(self):
        shape = FlashCrowd(base=10.0, peak=100.0, start=5.0, end=10.0)
        assert shape.rate(4.999) == 10.0
        assert shape.rate(5.0) == 100.0  # window is [start, end)
        assert shape.rate(9.999) == 100.0
        assert shape.rate(10.0) == 10.0

    def test_linear_ramps(self):
        shape = FlashCrowd(base=10.0, peak=110.0, start=0.0, end=10.0, ramp=2.0)
        assert shape.rate(1.0) == pytest.approx(60.0)  # halfway up
        assert shape.rate(2.0) == pytest.approx(110.0)  # plateau start
        assert shape.rate(5.0) == pytest.approx(110.0)
        assert shape.rate(9.0) == pytest.approx(60.0)  # halfway down

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FlashCrowd(base=-1.0, peak=10.0, start=0.0, end=1.0)
        with pytest.raises(ConfigurationError):
            FlashCrowd(base=10.0, peak=5.0, start=0.0, end=1.0)
        with pytest.raises(ConfigurationError):
            FlashCrowd(base=1.0, peak=2.0, start=1.0, end=1.0)
        with pytest.raises(ConfigurationError):
            # 2 * ramp must fit inside the window.
            FlashCrowd(base=1.0, peak=2.0, start=0.0, end=1.0, ramp=0.6)


class TestHotKeyStorm:
    @staticmethod
    def _storm(now_holder, storm_fraction=1.0):
        base = MicroBenchmark(1, 0, 0.0, items_per_partition=100)
        return HotKeyStorm(
            base,
            clock=lambda: now_holder[0],
            hot_keys=HOT,
            start=5.0,
            end=10.0,
            storm_fraction=storm_fraction,
        )

    def test_storm_window_produces_hot_txns(self):
        now = [6.0]
        storm = self._storm(now)
        rng = random.Random(7)
        for _ in range(20):
            spec = storm.next_txn(rng)
            assert spec.label == "hot"

    def test_outside_window_delegates_to_base(self):
        storm = self._storm([4.0])
        rng = random.Random(7)
        assert all(storm.next_txn(rng).label != "hot" for _ in range(20))
        storm_after = self._storm([10.0])
        assert all(storm_after.next_txn(rng).label != "hot" for _ in range(20))

    def test_storm_fraction_mixes_traffic(self):
        storm = self._storm([6.0], storm_fraction=0.5)
        rng = random.Random(7)
        labels = [storm.next_txn(rng).label for _ in range(200)]
        hot = labels.count("hot")
        assert 60 < hot < 140  # ~50% with slack

    def test_hot_program_increments_both_keys(self):
        """The storm program reads two hot keys and writes both + 1."""
        writes = {}

        class FakeTxn:
            def write(self, key, value):
                writes[key] = value

        spec = self._storm([6.0]).next_txn(random.Random(7))
        program = spec.program(FakeTxn())
        key_a, key_b = next(program).keys
        assert spec.label == "hot" and {key_a, key_b} < set(HOT)
        with pytest.raises(StopIteration):
            program.send({key_a: 3, key_b: "unseeded"})
        assert writes == {key_a: 4, key_b: 1}

    def test_validation(self):
        base = MicroBenchmark(1, 0, 0.0, items_per_partition=10)
        with pytest.raises(ConfigurationError):
            HotKeyStorm(base, lambda: 0.0, HOT[:1], 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            HotKeyStorm(base, lambda: 0.0, HOT, 0.0, 1.0, storm_fraction=1.5)
        with pytest.raises(ConfigurationError):
            HotKeyStorm(base, lambda: 0.0, HOT, 1.0, 1.0)
