"""Unit tests for latency models."""

import random

import pytest

from repro.sim.latency import (
    CompositeLatency,
    ConstantLatency,
    JitteredLatency,
    UniformLatency,
)


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


class TestUniform:
    def test_samples_within_bounds(self, rng):
        model = UniformLatency(0.01, 0.02)
        for _ in range(100):
            assert 0.01 <= model.sample("a", "b", rng) <= 0.02

    def test_expected_is_midpoint(self):
        assert UniformLatency(0.01, 0.03).expected("a", "b") == pytest.approx(0.02)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            UniformLatency(0.03, 0.01)


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


def set_link(model, src, dst, link):
    """Override ``model``'s latency for messages from ``src`` to ``dst``."""
    model._links[(src, dst)] = link


class TestComposite:
    def test_falls_back_to_default(self, rng):
        model = CompositeLatency(ConstantLatency(0.01))
        assert model.sample("a", "b", rng) == 0.01

    def test_per_link_override(self, rng):
        model = CompositeLatency(ConstantLatency(0.01))
        set_link(model, "a", "b", ConstantLatency(0.5))
        assert model.sample("a", "b", rng) == 0.5
        assert model.sample("b", "a", rng) == 0.01  # directional

    def test_symmetric_override(self, rng):
        model = CompositeLatency(ConstantLatency(0.01))
        set_link(model, "a", "b", ConstantLatency(0.2))
        set_link(model, "b", "a", ConstantLatency(0.2))
        assert model.sample("a", "b", rng) == 0.2
        assert model.sample("b", "a", rng) == 0.2

    def test_expected_respects_overrides(self):
        model = CompositeLatency(ConstantLatency(0.01))
        set_link(model, "x", "y", ConstantLatency(0.3))
        assert model.expected("x", "y") == 0.3
        assert model.expected("y", "x") == 0.01
