"""E2 — live partition split under load (extension experiment).

The DSN 2012 scalability result (S1) says throughput grows with the
number of partitions — but only if the operator can *add* partitions.
This extension measures elastic repartitioning end to end: a 2-partition
LAN cluster runs a workload hot on partition ``p0`` until its CPU
saturates, then splits ``p0`` live into ``p0`` + ``p2``
(:meth:`repro.harness.cluster.SdurCluster.split_partition` via a
scheduled ``split`` fault).  Clients keep committing throughout — the
migration fences only the moving key range, and stale-epoch retries
reroute in one round trip — and the previously-hot range ends up served
by two Paxos groups, so steady-state throughput rises.
"""

from __future__ import annotations

from repro.core.config import SdurConfig, ServiceCosts
from repro.core.partitioning import PartitionMap
from repro.experiments.common import ExperimentTable
from repro.geo.deployments import lan_deployment
from repro.harness.cluster import build_cluster
from repro.harness.driver import ClosedLoopDriver
from repro.harness.faults import FaultSchedule, throughput_timeline
from repro.metrics.collector import MetricsCollector
from repro.metrics.plot import render_bars
from repro.workload.microbench import MicroBenchmark

#: Heavy per-transaction CPU so one partition saturates around 1000 tps
#: — the split's capacity gain, not client count, must be the limiter.
COSTS = ServiceCosts(read=0.00005, certify=0.0005, apply=0.0005)
#: Closed-loop clients: enough that the split pair, not the clients,
#: bounds throughput after the split (eight leave it client-bound).
CLIENTS = 12

LAN_DELTA = 0.0005
SPLIT_AT = 6.0
RUN_FOR = 14.0


def run(quick: bool = False) -> ExperimentTable:
    """One shape in quick and full mode: a smaller one cannot show the gain."""
    deployment = lan_deployment(2)
    cluster = build_cluster(
        deployment,
        PartitionMap.by_index(2),
        SdurConfig(costs=COSTS),
        seed=72,
        intra_delay=LAN_DELTA,
    )
    collector = MetricsCollector()
    drivers = []
    for _ in range(CLIENTS):
        client = cluster.add_client(
            region=deployment.preferred_region["p0"],
            commit_timeout=1.0,
            read_timeout=0.5,
        )
        # Everybody hammers partition 0: the hot range about to be split.
        workload = MicroBenchmark(2, 0, 0.05, items_per_partition=2_000)
        drivers.append(ClosedLoopDriver(client, workload, collector))
    schedule = FaultSchedule().split(SPLIT_AT, "p0")
    cluster.start()
    schedule.arm(cluster)
    for driver in drivers:
        driver.start()
    cluster.world.run(until=RUN_FOR)
    for driver in drivers:
        driver.stop()
    cluster.world.run(until=RUN_FOR + 2.0)

    timeline = throughput_timeline(collector.results, start=1.0, end=RUN_FOR, bucket=1.0)
    before = [tps for t, tps in timeline if t < SPLIT_AT - 1]
    during = [tps for t, tps in timeline if SPLIT_AT <= t < SPLIT_AT + 1]
    after = [tps for t, tps in timeline if t >= SPLIT_AT + 2]
    retries = sum(c.stats.epoch_retries for c in cluster.clients.values())
    rows = [
        {"phase": "before split", "tps": round(sum(before) / len(before), 1)},
        {"phase": "split window (1s)", "tps": round(sum(during) / len(during), 1)},
        {"phase": "after split", "tps": round(sum(after) / len(after), 1)},
    ]
    chart = render_bars(
        {f"t={t:.0f}s": tps for t, tps in timeline},
        width=40,
        unit=" tps",
        title=f"throughput timeline (p0 splits into p0+p2 at t={SPLIT_AT:.0f}s)",
    )
    return ExperimentTable(
        experiment_id="E2",
        title="Live partition split under load (extension)",
        rows=rows,
        notes=[
            f"config epoch after run: {cluster.routing.epoch}; "
            f"stale-epoch client retries: {retries}",
            "\n" + chart,
        ],
    )
