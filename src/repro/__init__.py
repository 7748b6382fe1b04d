"""Scalable Deferred Update Replication (SDUR) — a full reproduction.

SDUR (Sciascia, Pedone, Junqueira — DSN 2012) scales deferred update
replication by partitioning the database: each partition is fully
replicated by its own Paxos group, local transactions terminate with one
atomic broadcast, and global transactions add a two-phase-commit-like
vote exchange.  This package also implements the geo-replication
extensions from the companion paper (WAN deployment models, transaction
delaying, and reordering).

Quick tour (see ``examples/quickstart.py`` for a runnable version)::

    from repro import build_cluster, wan1_deployment, PartitionMap, SdurConfig
    from repro.core.client import Read, ReadMany

    deployment = wan1_deployment(num_partitions=2)
    cluster = build_cluster(deployment, PartitionMap.by_index(2), SdurConfig())
    cluster.seed({"0/alice": 100, "1/carol": 75})
    client = cluster.add_client(region="eu")
    cluster.start()

    def transfer(txn):
        values = yield ReadMany(("0/alice", "1/carol"))
        txn.write("0/alice", values["0/alice"] - 5)
        txn.write("1/carol", values["1/carol"] + 5)

    client.execute(transfer, print)
    cluster.world.run_for(2.0)

Layering (bottom-up): :mod:`repro.sim` (deterministic discrete-event
kernel) → :mod:`repro.net` (messages, topology, transports) →
:mod:`repro.runtime` (the sans-io seam; simulation and asyncio backends)
→ :mod:`repro.consensus` (MultiPaxos atomic broadcast) +
:mod:`repro.storage` (multiversion store, bloom filters, WAL) →
:mod:`repro.core` (the SDUR protocol) → :mod:`repro.geo`,
:mod:`repro.workload`, :mod:`repro.harness`, :mod:`repro.metrics`,
:mod:`repro.checker`, :mod:`repro.experiments`.
"""

from repro.baseline.dur import build_classic_dur
from repro.core.client import ClientConfig, Read, ReadMany, SdurClient, TxnResult
from repro.core.config import DelayMode, SdurConfig, ServiceCosts
from repro.core.partitioning import PartitionMap
from repro.core.server import SdurServer
from repro.core.transaction import Outcome, TxnId
from repro.geo.deployments import lan_deployment, wan1_deployment, wan2_deployment
from repro.harness.cluster import SdurCluster, build_cluster
from repro.harness.driver import ClosedLoopDriver, OpenLoopDriver, run_experiment, run_open_loop
from repro.overload.admission import AdmissionConfig
from repro.telemetry import HealthConfig, MetricRegistry, TelemetryConfig

__version__ = "0.1.0"

__all__ = [
    "AdmissionConfig",
    "ClientConfig",
    "ClosedLoopDriver",
    "OpenLoopDriver",
    "DelayMode",
    "HealthConfig",
    "MetricRegistry",
    "Outcome",
    "PartitionMap",
    "Read",
    "ReadMany",
    "SdurClient",
    "SdurCluster",
    "SdurConfig",
    "SdurServer",
    "ServiceCosts",
    "TelemetryConfig",
    "TxnId",
    "TxnResult",
    "build_classic_dur",
    "build_cluster",
    "lan_deployment",
    "run_experiment",
    "run_open_loop",
    "wan1_deployment",
    "wan2_deployment",
    "__version__",
]
