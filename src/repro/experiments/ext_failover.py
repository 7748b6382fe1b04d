"""E1 — availability under leader failover (extension experiment).

The paper's model tolerates datacenter crashes (§II-A, §IV-A); this
extension quantifies what a client *experiences* when a partition's
Paxos leader — its preferred server — crashes mid-run: throughput dips
while the heartbeat oracle suspects the leader and the next replica runs
Phase 1, then recovers.  The fault schedule and the per-second
throughput timeline come from :mod:`repro.harness.faults`.
"""

from __future__ import annotations

from repro.consensus.replica import PaxosConfig
from repro.core.config import SdurConfig
from repro.core.partitioning import PartitionMap
from repro.experiments.common import ExperimentTable
from repro.geo.deployments import wan1_deployment
from repro.harness.cluster import build_cluster
from repro.harness.driver import ClosedLoopDriver
from repro.harness.faults import FaultSchedule, throughput_timeline
from repro.metrics.collector import MetricsCollector
from repro.metrics.plot import render_bars
from repro.workload.microbench import MicroBenchmark

CRASH_AT = 8.0
RUN_FOR = 20.0


def run(quick: bool = False) -> ExperimentTable:
    deployment = wan1_deployment(2)
    cluster = build_cluster(
        deployment,
        PartitionMap.by_index(2),
        SdurConfig(notify_all_replicas=True, vote_timeout=2.0),
        seed=71,
        paxos_for=lambda _node, _partition: PaxosConfig(
            static_leader=None, heartbeat_interval=0.05, suspect_timeout=0.4
        ),
    )
    collector = MetricsCollector()
    drivers = []
    for partition in deployment.partition_ids:
        home = int(partition[1:])
        for _ in range(4 if quick else 6):
            client = cluster.add_client(
                region=deployment.preferred_region[partition],
                commit_timeout=1.0,
                read_timeout=0.5,
            )
            workload = MicroBenchmark(2, home, 0.05, items_per_partition=2_000)
            drivers.append(ClosedLoopDriver(client, workload, collector))
    schedule = FaultSchedule().crash(CRASH_AT, "s1")  # p0's leader
    cluster.start()
    schedule.arm(cluster)
    for driver in drivers:
        driver.start()
    cluster.world.run(until=RUN_FOR)
    for driver in drivers:
        driver.stop()
    cluster.world.run(until=RUN_FOR + 2.0)

    timeline = throughput_timeline(collector.results, start=2.0, end=RUN_FOR, bucket=1.0)
    before = [tps for t, tps in timeline if t < CRASH_AT - 1]
    during = [tps for t, tps in timeline if CRASH_AT <= t < CRASH_AT + 2]
    after = [tps for t, tps in timeline if t >= CRASH_AT + 4]
    rows = [
        {"phase": "before crash", "tps": round(sum(before) / len(before), 1)},
        {"phase": "failover window (2s)", "tps": round(sum(during) / len(during), 1)},
        {"phase": "after recovery", "tps": round(sum(after) / len(after), 1)},
    ]
    survivors = [
        handle.replica.leader
        for name, handle in cluster.servers.items()
        if handle.partition == "p0" and name != "s1"
    ]
    chart = render_bars(
        {f"t={t:.0f}s": tps for t, tps in timeline},
        width=40,
        unit=" tps",
        title=f"throughput timeline (leader s1 crashes at t={CRASH_AT:.0f}s)",
    )
    return ExperimentTable(
        experiment_id="E1",
        title="Availability under leader failover (extension)",
        rows=rows,
        notes=[
            f"new p0 leader after failover: {survivors[0]}",
            "\n" + chart,
        ],
    )
