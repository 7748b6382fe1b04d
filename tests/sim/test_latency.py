"""Unit tests for latency models."""

import random

import pytest

from repro.sim.latency import ConstantLatency, JitteredLatency


@pytest.fixture
def rng():
    return random.Random(1)


class TestConstant:
    def test_sample_is_constant(self, rng):
        model = ConstantLatency(0.01)
        assert all(model.sample("a", "b", rng) == 0.01 for _ in range(10))

    def test_expected_equals_delay(self):
        assert ConstantLatency(0.02).expected("a", "b") == 0.02

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantLatency(-0.1)


class TestJittered:
    def test_samples_never_below_base(self, rng):
        model = JitteredLatency(0.05, 0.01)
        assert all(model.sample("a", "b", rng) >= 0.05 for _ in range(200))

    def test_zero_jitter_is_constant(self, rng):
        model = JitteredLatency(0.05, 0.0)
        assert model.sample("a", "b", rng) == 0.05

    def test_expected_accounts_for_folded_gaussian(self):
        model = JitteredLatency(0.05, 0.01)
        expected = model.expected("a", "b")
        assert expected > 0.05
        samples = [model.sample("a", "b", random.Random(7)) for _ in range(1)]
        rng = random.Random(7)
        mean = sum(model.sample("a", "b", rng) for _ in range(20000)) / 20000
        assert mean == pytest.approx(expected, rel=0.05)
        assert samples  # silence unused warning
