"""Classic (non-partitioned) deferred update replication — the baseline.

The DSN 2012 paper's point of departure is classic deferred update
replication (Pedone et al.'s Database State Machine and its descendants):
**every** server keeps a **full** copy of the database, every update
transaction is atomically broadcast to **one** system-wide group, and
every server certifies and applies **every** transaction.  Its throughput
is therefore capped by what a single server can order, certify, and
apply, no matter how many replicas are added — the motivation for SDUR's
partitioning.

Formally, classic DUR is exactly SDUR with one partition: no transaction
is ever global, so no votes, no reordering, no cross-partition anything —
the protocol degenerates to ``abcast; certify(rs ∩ ws); apply``.  We
therefore *construct* the baseline as a one-partition SDUR deployment
over ``n`` fully replicating servers rather than forking a second
protocol implementation; the equivalence is asserted by
``tests/baseline/test_dur.py`` (same workload ⇒ equivalent outcomes) and
the scalability experiment S1 compares it against partitioned SDUR at
equal server counts.
"""

from __future__ import annotations

from repro.core.config import SdurConfig
from repro.core.partitioning import PartitionMap
from repro.errors import ConfigurationError
from repro.geo.deployments import Deployment
from repro.harness.cluster import SdurCluster, build_cluster
from repro.net.topology import US_EAST, NodeSpec, Topology
from repro.core.directory import ClusterDirectory


def classic_dur_deployment(num_servers: int = 3, region: str = US_EAST) -> Deployment:
    """One group of ``num_servers`` replicas, each holding the full database."""
    if num_servers < 1:
        raise ConfigurationError("need at least one server")
    topology = Topology()
    names = [f"d{i + 1}" for i in range(num_servers)]
    for index, name in enumerate(names):
        topology.add_node(NodeSpec(name, region, f"dc{index + 1}"))
    directory = ClusterDirectory(
        partitions={"p0": names}, preferred={"p0": names[0]}, topology=topology
    )
    return Deployment("classic-dur", topology, directory, {"p0": region})


def build_classic_dur(
    num_servers: int = 3,
    config: SdurConfig | None = None,
    seed: int = 0,
    intra_delay: float | None = None,
) -> SdurCluster:
    """A ready-to-start classic DUR cluster (single replication group).

    The partition map has one partition, so every key is "local": the
    termination path is one atomic broadcast plus certification — classic
    deferred update replication.
    """
    deployment = classic_dur_deployment(num_servers, US_EAST)
    partition_map = PartitionMap(1)
    return build_cluster(
        deployment,
        partition_map,
        config or SdurConfig(),
        seed=seed,
        intra_delay=intra_delay,
    )
