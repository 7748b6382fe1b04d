"""Nodes, regions, and the region-aware latency model.

The geo experiments place servers and clients in *regions* (the paper uses
Amazon EC2's EU, US-EAST and US-WEST).  Communication between processes in
the same region costs δ, communication across regions costs Δ, with
Δ ≫ δ.  This module models that structure:

* :class:`NodeSpec` — a process and its placement (region, datacenter).
* :class:`Topology` — the directory of all nodes.
* :class:`RegionLatencyModel` — a :class:`~repro.sim.latency.LatencyModel`
  that charges δ within a region and a per-region-pair Δ across regions.

Default inter-region delays are one-way halves of the RTTs the paper
measured on EC2 (≈100 ms US-EAST↔US-WEST, ≈90 ms US-EAST↔EU,
≈170 ms US-WEST↔EU).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, UnknownNodeError
from repro.sim.latency import ConstantLatency, JitteredLatency, LatencyModel

#: Region names used by the paper's deployment.
EU = "eu"
US_EAST = "us-east"
US_WEST = "us-west"

#: One-way inter-region delays in seconds (half the paper's measured RTTs).
PAPER_INTER_REGION_DELAYS: dict[frozenset[str], float] = {
    frozenset({US_EAST, US_WEST}): 0.050,
    frozenset({US_EAST, EU}): 0.045,
    frozenset({US_WEST, EU}): 0.085,
}

#: Default one-way intra-region delay (δ) in seconds.
DEFAULT_INTRA_REGION_DELAY = 0.005

#: Delay for a node messaging itself (in-process hand-off).
LOOPBACK_DELAY = 0.00005


@dataclass(frozen=True)
class NodeSpec:
    """A process and where it runs."""

    node_id: str
    region: str
    datacenter: str = "dc1"


class Topology:
    """Directory of every node in the deployment and its placement."""

    def __init__(self) -> None:
        self._nodes: dict[str, NodeSpec] = {}

    def add_node(self, spec: NodeSpec) -> NodeSpec:
        if spec.node_id in self._nodes:
            raise ConfigurationError(f"duplicate node id {spec.node_id!r}")
        self._nodes[spec.node_id] = spec
        return spec

    def add(self, node_id: str, region: str, datacenter: str = "dc1") -> NodeSpec:
        """Convenience wrapper around :meth:`add_node`."""
        return self.add_node(NodeSpec(node_id, region, datacenter))

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def node_ids(self) -> list[str]:
        return list(self._nodes)

    def spec(self, node_id: str) -> NodeSpec:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNodeError(f"unknown node {node_id!r}") from None

    def region_of(self, node_id: str) -> str:
        return self.spec(node_id).region

    def regions(self) -> set[str]:
        return {spec.region for spec in self._nodes.values()}

    def nodes_in_region(self, region: str) -> list[str]:
        return [node_id for node_id, spec in self._nodes.items() if spec.region == region]

    def sort_by_proximity(self, from_node: str, candidates: list[str]) -> list[str]:
        """Order ``candidates`` from nearest to farthest from ``from_node``.

        Proximity classes: same node, same datacenter, same region,
        different region.  Ties keep the input order, which makes routing
        deterministic.
        """
        origin = self.spec(from_node)

        def rank(candidate: str) -> int:
            spec = self.spec(candidate)
            if candidate == from_node:
                return 0
            if spec.region == origin.region and spec.datacenter == origin.datacenter:
                return 1
            if spec.region == origin.region:
                return 2
            return 3

        return sorted(candidates, key=rank)


@dataclass
class RegionLatencyModel(LatencyModel):
    """δ within a region, per-pair Δ across regions.

    ``intra`` and the values of ``inter`` may be floats (constant delay)
    or full :class:`LatencyModel` instances for jittered links.
    """

    topology: Topology
    intra: LatencyModel = field(
        default_factory=lambda: ConstantLatency(DEFAULT_INTRA_REGION_DELAY)
    )
    inter: dict[frozenset[str], LatencyModel] = field(default_factory=dict)
    default_inter: LatencyModel = field(default_factory=lambda: ConstantLatency(0.050))
    loopback: float = LOOPBACK_DELAY

    @classmethod
    def paper_defaults(
        cls,
        topology: Topology,
        intra_delay: float = DEFAULT_INTRA_REGION_DELAY,
        jitter_fraction: float = 0.0,
    ) -> "RegionLatencyModel":
        """The EC2 delays the paper measured, as one-way latencies.

        ``jitter_fraction`` adds truncated-Gaussian jitter with stddev
        ``fraction * base`` per link, approximating real EC2 variance
        (and smoothing latency CDFs the way the paper's measurements are).
        """

        def model(base: float) -> LatencyModel:
            if jitter_fraction > 0:
                return JitteredLatency(base, jitter_fraction * base)
            return ConstantLatency(base)

        inter = {
            pair: model(delay) for pair, delay in PAPER_INTER_REGION_DELAYS.items()
        }
        return cls(topology=topology, intra=model(intra_delay), inter=inter)

    @classmethod
    def uniform(
        cls, topology: Topology, intra_delay: float, inter_delay: float
    ) -> "RegionLatencyModel":
        """A symmetric model with a single δ and a single Δ."""
        return cls(
            topology=topology,
            intra=ConstantLatency(intra_delay),
            default_inter=ConstantLatency(inter_delay),
        )

    def _link_model(self, src: str, dst: str) -> LatencyModel | None:
        region_src = self.topology.region_of(src)
        region_dst = self.topology.region_of(dst)
        if region_src == region_dst:
            return self.intra
        return self.inter.get(frozenset({region_src, region_dst}), self.default_inter)

    def sample(self, src: str, dst: str, rng: random.Random) -> float:
        if src == dst:
            return self.loopback
        model = self._link_model(src, dst)
        return model.sample(src, dst, rng)

    def expected(self, src: str, dst: str) -> float:
        if src == dst:
            return self.loopback
        model = self._link_model(src, dst)
        return model.expected(src, dst)
