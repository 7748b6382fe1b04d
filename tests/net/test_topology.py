"""Unit tests for topology and the region latency model."""

import random

import pytest

from repro.errors import ConfigurationError, UnknownNodeError
from repro.net.topology import (
    EU,
    LOOPBACK_DELAY,
    PAPER_INTER_REGION_DELAYS,
    US_EAST,
    US_WEST,
    RegionLatencyModel,
    Topology,
)


@pytest.fixture
def topo():
    topology = Topology()
    topology.add("a1", EU, "dc1")
    topology.add("a2", EU, "dc1")
    topology.add("a3", EU, "dc2")
    topology.add("b1", US_EAST, "dc1")
    topology.add("c1", US_WEST, "dc1")
    return topology


class TestTopology:
    def test_membership(self, topo):
        assert "a1" in topo and "zz" not in topo
        assert len(topo) == 5

    def test_duplicate_rejected(self, topo):
        with pytest.raises(ConfigurationError):
            topo.add("a1", EU)

    def test_unknown_node_raises(self, topo):
        with pytest.raises(UnknownNodeError):
            topo.region_of("ghost")

    def test_regions(self, topo):
        assert topo.regions() == {EU, US_EAST, US_WEST}
        assert set(topo.nodes_in_region(EU)) == {"a1", "a2", "a3"}

    def test_same_region(self, topo):
        assert topo.region_of("a1") == topo.region_of("a3")
        assert topo.region_of("a1") != topo.region_of("b1")

    def test_proximity_ranking(self, topo):
        ranked = topo.sort_by_proximity("a1", ["c1", "b1", "a3", "a2", "a1"])
        assert ranked[0] == "a1"  # self first
        assert ranked[1] == "a2"  # same datacenter
        assert ranked[2] == "a3"  # same region, other dc
        assert set(ranked[3:]) == {"b1", "c1"}  # other regions last

    def test_proximity_ties_keep_input_order(self, topo):
        assert topo.sort_by_proximity("a1", ["b1", "c1"]) == ["b1", "c1"]
        assert topo.sort_by_proximity("a1", ["c1", "b1"]) == ["c1", "b1"]


class TestRegionLatencyModel:
    def test_intra_region_uses_delta(self, topo):
        model = RegionLatencyModel.uniform(topo, intra_delay=0.005, inter_delay=0.05)
        assert model.sample("a1", "a3", random.Random(1)) == 0.005

    def test_inter_region_uses_inter_delta(self, topo):
        model = RegionLatencyModel.uniform(topo, intra_delay=0.005, inter_delay=0.05)
        assert model.sample("a1", "b1", random.Random(1)) == 0.05

    def test_loopback_delay_for_self_messages(self, topo):
        model = RegionLatencyModel.uniform(topo, 0.005, 0.05)
        assert model.sample("a1", "a1", random.Random(1)) == LOOPBACK_DELAY

    def test_paper_defaults_match_measured_pairs(self, topo):
        model = RegionLatencyModel.paper_defaults(topo)
        rng = random.Random(1)
        assert model.sample("b1", "c1", rng) == pytest.approx(
            PAPER_INTER_REGION_DELAYS[frozenset({US_EAST, US_WEST})]
        )
        assert model.sample("a1", "c1", rng) == pytest.approx(
            PAPER_INTER_REGION_DELAYS[frozenset({US_WEST, EU})]
        )

    def test_paper_defaults_symmetric(self, topo):
        model = RegionLatencyModel.paper_defaults(topo)
        rng = random.Random(1)
        assert model.sample("a1", "b1", rng) == model.sample("b1", "a1", rng)

    def test_jitter_adds_nonnegative_noise(self, topo):
        model = RegionLatencyModel.paper_defaults(topo, jitter_fraction=0.2)
        rng = random.Random(2)
        base = PAPER_INTER_REGION_DELAYS[frozenset({US_EAST, EU})]
        samples = [model.sample("a1", "b1", rng) for _ in range(100)]
        assert all(s >= base for s in samples)
        assert len(set(samples)) > 1

    def test_expected_matches_constant_models(self, topo):
        model = RegionLatencyModel.uniform(topo, 0.004, 0.08)
        assert model.expected("a1", "a2") == 0.004
        assert model.expected("a1", "b1") == 0.08
