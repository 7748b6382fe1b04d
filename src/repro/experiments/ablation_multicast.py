"""A5 — SDUR termination vs genuine atomic multicast (the P-Store trade).

P-Store terminates global transactions by genuinely atomically
multicasting them to the involved partitions: the multicast order is
total across those partitions, so one certification suffices — no vote
exchange.  SDUR instead runs one cheap atomic broadcast per partition
plus a vote exchange.  The paper's related work asserts multicast "is
more expensive than atomic broadcast"; this experiment measures both
termination primitives on identical WAN topologies:

* **SDUR global termination** — from the coordinator receiving the
  commit request to commit at the coordinator (broadcasts + votes).
* **Multicast termination** — from ``amcast`` at the same node to
  delivery at that node (timestamp proposal + exchange + final round);
  certification after delivery is CPU-only.

Both latency and consensus-message counts per terminated transaction
are reported.
"""

from __future__ import annotations

from repro.consensus.multicast import GenuineMulticast
from repro.consensus.replica import PaxosConfig, PaxosReplica
from repro.core.config import SdurConfig
from repro.core.partitioning import PartitionMap
from repro.experiments.common import ExperimentTable
from repro.geo.deployments import wan1_deployment, wan2_deployment
from repro.harness.cluster import SdurCluster
from repro.net.topology import RegionLatencyModel
from repro.runtime.sim import SimWorld
from repro.workload.microbench import MicroBenchmark
from repro.harness.driver import run_experiment

DELTA = 0.005
INTER_DELTA = 0.060


def _uniform_world(deployment, seed):
    return SimWorld(
        topology=deployment.topology,
        latency=RegionLatencyModel.uniform(deployment.topology, DELTA, INTER_DELTA),
        seed=seed,
    )


def _measure_sdur(deployment_name: str, rounds: int) -> dict:
    deployment = (
        wan1_deployment(2) if deployment_name == "wan1" else wan2_deployment(2)
    )
    world = _uniform_world(deployment, seed=31)
    # Gossip off: count only transaction-path messages.
    cluster = SdurCluster(
        world, deployment, PartitionMap.by_index(2), SdurConfig(gossip_interval=None)
    )
    client = cluster.add_client(region=deployment.preferred_region["p0"])
    workload = MicroBenchmark(2, 0, 1.0, items_per_partition=1_000)
    run = run_experiment(
        cluster, [(client, workload)], warmup=1.0, measure=rounds * 0.3, drain=2.0
    )
    total = run.summary()
    return {
        "latency_ms": round(total.latency.ms("mean") - 2 * DELTA * 1000, 1),
        "msgs": round(world.network.messages_sent / max(1, total.committed), 1),
    }


def _measure_multicast(deployment_name: str, rounds: int) -> dict:
    deployment = (
        wan1_deployment(2) if deployment_name == "wan1" else wan2_deployment(2)
    )
    world = _uniform_world(deployment, seed=32)
    groups = dict(deployment.directory.partitions)
    delivered_at = {}
    endpoints = {}
    replicas = []
    for group_id, members in groups.items():
        for member in members:
            runtime = world.runtime_for(member)
            replica = PaxosReplica(
                runtime,
                group_id,
                members,
                PaxosConfig(static_leader=deployment.directory.preferred_of(group_id)),
            )
            endpoint = GenuineMulticast(
                runtime,
                group_id,
                groups,
                replica,
                on_deliver=lambda mid, payload, m=member: delivered_at.setdefault(
                    (m, mid), world.now
                ),
            )
            replica.on_deliver = endpoint.on_group_deliver

            def dispatch(src, msg, replica=replica, endpoint=endpoint):
                if replica.handle(src, msg):
                    return
                endpoint.handle(src, msg)

            runtime.listen(dispatch)
            endpoints[member] = endpoint
            replicas.append(replica)
    for replica in replicas:
        replica.start()
    world.run(until=1.0)
    origin = deployment.directory.preferred_of("p0")
    latencies = []
    messages_before = world.network.messages_sent
    for i in range(rounds):
        start = world.now
        mid = endpoints[origin].amcast(("p0", "p1"), f"txn{i}")
        deadline = world.now + 5.0
        while (origin, mid) not in delivered_at and world.now < deadline:
            world.kernel.step()
        latencies.append(delivered_at[(origin, mid)] - start)
        world.run_for(0.05)  # settle before the next round
    msgs = (world.network.messages_sent - messages_before) / rounds
    return {
        "latency_ms": round(sum(latencies) / len(latencies) * 1000, 1),
        "msgs": round(msgs, 1),
    }


def run(quick: bool = False) -> ExperimentTable:
    rounds = 10 if quick else 30
    rows = []
    for deployment_name in ("wan1", "wan2"):
        sdur = _measure_sdur(deployment_name, rounds)
        multicast = _measure_multicast(deployment_name, rounds)
        rows.append(
            {
                "deployment": deployment_name,
                "sdur_commit_ms": sdur["latency_ms"],
                "amcast_deliver_ms": multicast["latency_ms"],
                "sdur_msgs_per_txn": sdur["msgs"],
                "amcast_msgs_per_txn": multicast["msgs"],
            }
        )
    return ExperimentTable(
        experiment_id="A5",
        title="Global termination: SDUR (broadcast + votes) vs genuine atomic "
        "multicast (P-Store style)",
        rows=rows,
        notes=[
            "SDUR latency is commit-request -> commit at the coordinator "
            "(execution phase subtracted); multicast latency is amcast -> "
            "delivery at the same node (certification afterwards is CPU-only)",
            "message counts are not directly comparable: the SDUR column is "
            "the whole transaction path (reads, termination, client reply), "
            "the amcast column the bare ordering primitive",
            "the paper's related-work claim — genuine multicast termination "
            "is more expensive than per-partition atomic broadcast — shows in "
            "WAN 2 latency; note also that amcast costs two consensus rounds "
            "in the origin group (start + final) vs SDUR's one",
        ],
    )
