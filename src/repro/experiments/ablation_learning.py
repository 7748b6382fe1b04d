"""A3 — Paxos learning-strategy ablation.

How followers learn chosen values determines the WAN 2 global-commit
latency (see :mod:`repro.experiments.fig1_model`):

* **coordinator relay** (default): acceptors answer the coordinator,
  which relays ``Chosen`` — follower learning costs one extra Δ
  (global commit ≈ 2δ+8Δ) but Phase 2 uses O(n) messages.
* **acceptor broadcast**: every acceptor broadcasts Phase-2b to the
  whole group — followers learn with the coordinator (global commit
  ≈ 3δ+6Δ) at O(n²) messages.

The modelled 3δ+7Δ — the paper's 3δ+3Δ plus the 4Δ the vote ledger adds
in WAN 2 (docs/PROTOCOL.md §14.4) — sits between the two.  This ablation
measures both latency and message counts for each strategy.
"""

from __future__ import annotations

from repro.consensus.replica import PaxosConfig
from repro.core.config import SdurConfig
from repro.core.partitioning import PartitionMap
from repro.experiments.common import ExperimentTable
from repro.geo.deployments import wan2_deployment
from repro.harness.cluster import SdurCluster
from repro.harness.driver import run_experiment
from repro.net.topology import RegionLatencyModel
from repro.runtime.sim import SimWorld
from repro.workload.microbench import MicroBenchmark

DELTA = 0.005
INTER_DELTA = 0.060


def _run(accepted_broadcast: bool, quick: bool) -> dict:
    deployment = wan2_deployment(2)
    world = SimWorld(
        topology=deployment.topology,
        latency=RegionLatencyModel.uniform(deployment.topology, DELTA, INTER_DELTA),
        seed=111,
    )
    cluster = SdurCluster(world, deployment, PartitionMap.by_index(2), SdurConfig())
    for partition in deployment.partition_ids:
        for node_id in deployment.directory.servers_of(partition):
            cluster._add_server(
                node_id,
                partition,
                PaxosConfig(
                    static_leader=deployment.directory.preferred_of(partition),
                    accepted_broadcast=accepted_broadcast,
                ),
            )
    pairs = []
    for partition in deployment.partition_ids:
        home_index = int(partition[1:])
        for _ in range(2):
            client = cluster.add_client(region=deployment.preferred_region[partition])
            workload = MicroBenchmark(2, home_index, 0.5, items_per_partition=2_000)
            pairs.append((client, workload))
    # Snapshot the message counter at the measurement-window edges so
    # msgs/commit is computed over exactly the committed transactions.
    network = world.network
    warmup, measure = 2.0, (8.0 if quick else 20.0)
    marks: dict[str, int] = {}
    world.kernel.schedule(warmup, lambda: marks.__setitem__("start", network.messages_sent))
    world.kernel.schedule(
        warmup + measure, lambda: marks.__setitem__("end", network.messages_sent)
    )
    run = run_experiment(cluster, pairs, warmup=warmup, measure=measure)
    total = run.summary()
    window_msgs = marks["end"] - marks["start"]
    return {
        "local_avg_ms": round(run.summary(is_global=False).latency.ms("mean"), 1),
        "global_avg_ms": round(run.summary(is_global=True).latency.ms("mean"), 1),
        "global_p99_ms": round(run.summary(is_global=True).latency.ms("p99"), 1),
        "msgs_per_commit": round(window_msgs / max(1, total.committed), 1),
    }


def run(quick: bool = False) -> ExperimentTable:
    rows = []
    for name, broadcast in (("coordinator relay", False), ("acceptor broadcast", True)):
        rows.append({"learning": name, **_run(broadcast, quick)})
    expected_relay = (2 * DELTA + 8 * INTER_DELTA) * 1000
    expected_bcast = (3 * DELTA + 6 * INTER_DELTA) * 1000
    return ExperimentTable(
        experiment_id="A3",
        title="Paxos learning strategy vs WAN 2 global latency (ablation)",
        rows=rows,
        notes=[
            f"unloaded expectations (plus 2δ of reads): relay ≈ {expected_relay:.0f} ms "
            f"(2δ+8Δ), broadcast ≈ {expected_bcast:.0f} ms (3δ+6Δ); the modelled 3δ+7Δ "
            f"= {(3 * DELTA + 7 * INTER_DELTA) * 1000:.0f} ms (paper's 3δ+3Δ + 4Δ vote tax) "
            "lies between",
            "broadcast trades O(n²) Phase-2b messages for one Δ of follower latency",
        ],
    )


def main() -> None:
    run().print()


if __name__ == "__main__":
    main()
