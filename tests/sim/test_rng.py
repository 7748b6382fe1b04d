"""Unit tests for named reproducible random streams."""

from repro.sim.rng import RngRegistry, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_differs_by_name(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_differs_by_master(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")


class TestRegistry:
    def test_same_name_returns_same_stream(self):
        registry = RngRegistry(5)
        assert registry.stream("x") is registry.stream("x")

    def test_streams_are_independent(self):
        registry = RngRegistry(5)
        a = [registry.stream("a").random() for _ in range(5)]
        b = [registry.stream("b").random() for _ in range(5)]
        assert a != b

    def test_reproducible_across_registries(self):
        seq1 = [RngRegistry(9).stream("net").random() for _ in range(3)]
        seq2 = [RngRegistry(9).stream("net").random() for _ in range(3)]
        # Note: each call above creates a fresh registry, so only the first
        # draws match; compare whole sequences drawn from two registries.
        r1, r2 = RngRegistry(9), RngRegistry(9)
        assert [r1.stream("net").random() for _ in range(10)] == [
            r2.stream("net").random() for _ in range(10)
        ]
        assert seq1 == seq2

    def test_adding_a_stream_does_not_perturb_others(self):
        r1 = RngRegistry(3)
        first = [r1.stream("a").random() for _ in range(5)]
        r2 = RngRegistry(3)
        r2.stream("newcomer").random()  # extra stream consumed first
        second = [r2.stream("a").random() for _ in range(5)]
        assert first == second
