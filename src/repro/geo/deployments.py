"""Deployment builders: the paper's WAN 1 / WAN 2 and LAN layouts.

A :class:`Deployment` bundles the topology (who runs where) and the
cluster directory (who replicates what, who is preferred).  Server ids
follow the paper's Figure 1: partition ``p0`` gets ``s1..s3``, ``p1``
gets ``s4..s6``, and so on.

* **WAN 1** — each partition keeps a majority (2 of 3) in its preferred
  region and one replica in another region, so local commits need only
  intra-region Paxos (4δ) but a region loss can wipe a majority.
* **WAN 2** — each partition spreads one replica per region, surviving
  region failures at the cost of cross-region Paxos (2δ+2Δ locals).
* **LAN** — everything in one region; used by the reconstructed DSN 2012
  scalability experiments where the bottleneck is server CPU, not
  geography.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

from repro.core.directory import ClusterDirectory
from repro.net.topology import EU, US_EAST, US_WEST, NodeSpec, Topology

#: The regions WAN 1 (the first two) and WAN 2 (all three) span.
DEFAULT_REGIONS = [EU, US_EAST, US_WEST]
#: Replicas per partition in the single-region deployment.
LAN_REPLICAS = 3


@dataclass
class Deployment:
    """Topology + directory for one SDUR cluster."""

    name: str
    topology: Topology
    directory: ClusterDirectory
    #: partition id -> region of its preferred server.
    preferred_region: dict[str, str] = field(default_factory=dict)
    _client_counter: count = field(default_factory=lambda: count(1), repr=False)

    @property
    def partition_ids(self) -> list[str]:
        return self.directory.partition_ids

    def add_client(self, region: str, datacenter: str = "dc-clients") -> str:
        """Register a client node in ``region``; returns its node id."""
        client_id = f"c{next(self._client_counter)}"
        self.topology.add(client_id, region, datacenter)
        return client_id

    def session_server_for(self, client_id: str) -> str:
        """The preferred server co-located with the client, if any.

        Falls back to the globally first preferred server when no
        partition prefers the client's region — the paper's model expects
        applications to place clients next to their data (§IV-A).
        """
        region = self.topology.region_of(client_id)
        for partition in self.partition_ids:
            if self.preferred_region.get(partition) == region:
                return self.directory.preferred_of(partition)
        return self.directory.preferred_of(self.partition_ids[0])


def _server_names(partition_index: int, replicas: int) -> list[str]:
    base = partition_index * replicas
    return [f"s{base + i + 1}" for i in range(replicas)]


def wan1_deployment(num_partitions: int = 2) -> Deployment:
    """Figure 1's WAN 1: per-partition majority in its preferred region.

    Partition ``i`` prefers region ``i % 2`` of the first two
    :data:`DEFAULT_REGIONS`: two replicas (including the preferred
    server) live there and one replica lives in the next region over —
    which is also what lets other partitions' clients read this
    partition within 2δ.
    """
    regions = DEFAULT_REGIONS[:2]
    topology = Topology()
    partitions: dict[str, list[str]] = {}
    preferred: dict[str, str] = {}
    preferred_region: dict[str, str] = {}
    for index in range(num_partitions):
        partition = f"p{index}"
        names = _server_names(index, 3)
        home = regions[index % len(regions)]
        away = regions[(index + 1) % len(regions)]
        topology.add_node(NodeSpec(names[0], home, "dc1"))
        topology.add_node(NodeSpec(names[1], home, "dc2"))
        topology.add_node(NodeSpec(names[2], away, "dc1"))
        partitions[partition] = names
        preferred[partition] = names[0]
        preferred_region[partition] = home
    directory = ClusterDirectory(partitions=partitions, preferred=preferred, topology=topology)
    return Deployment("wan1", topology, directory, preferred_region)


def wan2_deployment(num_partitions: int = 2) -> Deployment:
    """Figure 1's WAN 2: one replica of every partition in every region.

    Partition ``i``'s preferred server sits in region
    ``i % len(DEFAULT_REGIONS)`` (the paper avoids giving one region two
    preferred servers when it would leave another region with none —
    rotation achieves that).
    """
    regions = DEFAULT_REGIONS
    topology = Topology()
    partitions: dict[str, list[str]] = {}
    preferred: dict[str, str] = {}
    preferred_region: dict[str, str] = {}
    for index in range(num_partitions):
        partition = f"p{index}"
        names = _server_names(index, len(regions))
        home_offset = index % len(regions)
        for replica, name in enumerate(names):
            region = regions[(home_offset + replica) % len(regions)]
            topology.add_node(NodeSpec(name, region, "dc1"))
        partitions[partition] = names
        preferred[partition] = names[0]
        preferred_region[partition] = regions[home_offset]
    directory = ClusterDirectory(partitions=partitions, preferred=preferred, topology=topology)
    return Deployment("wan2", topology, directory, preferred_region)


def lan_deployment(num_partitions: int) -> Deployment:
    """Everything in one region, :data:`LAN_REPLICAS` replicas per
    partition: the DSN 2012 scalability setting."""
    topology = Topology()
    partitions: dict[str, list[str]] = {}
    preferred: dict[str, str] = {}
    preferred_region: dict[str, str] = {}
    for index in range(num_partitions):
        partition = f"p{index}"
        names = _server_names(index, LAN_REPLICAS)
        for replica, name in enumerate(names):
            topology.add_node(NodeSpec(name, US_EAST, f"dc{replica + 1}"))
        partitions[partition] = names
        preferred[partition] = names[0]
        preferred_region[partition] = US_EAST
    directory = ClusterDirectory(partitions=partitions, preferred=preferred, topology=topology)
    return Deployment("lan", topology, directory, preferred_region)
