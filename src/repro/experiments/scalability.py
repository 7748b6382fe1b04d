"""S1/S2 — the reconstructed DSN 2012 scalability experiments.

The DSN 2012 paper's core claim (restated in the companion paper's
abstract and §I) is that partitioning makes deferred update replication
*scale*: local-only throughput grows roughly linearly with the number of
partitions, while classic DUR — one replication group certifying and
applying everything at every server — stays flat no matter how many
servers are added.

Both experiments run in a single region (LAN latencies) with a nonzero
CPU model, because here the bottleneck is what one server core can
certify and apply per second, not geography:

* **S1** — local-only workload over P ∈ {1, 2, 4, 8} partitions
  (3 replicas each) vs classic DUR with the same total server count.
* **S2** — P = 4 partitions, sweeping the global-transaction share
  through {0, 1, 5, 10, 20, 50} %: globals consume certification
  capacity in *two* partitions and serialize behind vote exchanges, so
  aggregate throughput degrades as their share grows.
"""

from __future__ import annotations

from repro.baseline.dur import build_classic_dur
from repro.core.config import SdurConfig, ServiceCosts
from repro.core.partitioning import PartitionMap
from repro.experiments.common import ExperimentTable
from repro.geo.deployments import lan_deployment
from repro.harness.cluster import build_cluster
from repro.harness.driver import run_experiment
from repro.workload.microbench import MicroBenchmark

#: CPU seconds per transaction at a server: 200 µs certify + 300 µs apply
#: caps one partition at ~2000 committed tps — the same order as the
#: paper's single-core EC2 mediums.
COSTS = ServiceCosts(read=0.00005, certify=0.0002, apply=0.0003)

#: LAN one-way delay.
LAN_DELTA = 0.0005


def _run_sdur(
    num_partitions: int,
    global_fraction: float,
    clients_per_partition: int,
    measure: float,
) -> dict:
    deployment = lan_deployment(num_partitions)
    config = SdurConfig(costs=COSTS)
    cluster = build_cluster(
        deployment,
        PartitionMap.by_index(num_partitions),
        config,
        seed=71,
        intra_delay=LAN_DELTA,
    )
    pairs = []
    for partition in deployment.partition_ids:
        home_index = int(partition[1:])
        for _ in range(clients_per_partition):
            client = cluster.add_client(region=deployment.preferred_region[partition])
            workload = MicroBenchmark(
                num_partitions=num_partitions,
                home_partition_index=home_index,
                global_fraction=global_fraction,
                items_per_partition=5_000,
            )
            pairs.append((client, workload))
    run = run_experiment(cluster, pairs, warmup=1.0, measure=measure, drain=1.0)
    total = run.summary()
    return {
        "tput": total.throughput,
        "committed": total.committed,
        "aborted": total.aborted,
        "avg_ms": total.latency.ms("mean"),
    }


def _run_classic(num_servers: int, clients: int, measure: float) -> dict:
    cluster = build_classic_dur(
        num_servers, SdurConfig(costs=COSTS), seed=71, intra_delay=LAN_DELTA
    )
    pairs = []
    for _ in range(clients):
        client = cluster.add_client()
        workload = MicroBenchmark(
            num_partitions=1,
            home_partition_index=0,
            global_fraction=0.0,
            items_per_partition=5_000,
        )
        pairs.append((client, workload))
    run = run_experiment(cluster, pairs, warmup=1.0, measure=measure, drain=1.0)
    total = run.summary()
    return {"tput": total.throughput, "avg_ms": total.latency.ms("mean")}


def run_s1(quick: bool = False) -> ExperimentTable:
    partitions = (1, 2, 4) if quick else (1, 2, 4, 8)
    clients_per_partition = 12 if quick else 16
    measure = 4.0 if quick else 8.0
    rows = []
    base_tput = None
    for num_partitions in partitions:
        sdur = _run_sdur(num_partitions, 0.0, clients_per_partition, measure)
        classic = _run_classic(
            3 * num_partitions, clients_per_partition * num_partitions, measure
        )
        if base_tput is None:
            base_tput = sdur["tput"]
        rows.append(
            {
                "partitions": num_partitions,
                "servers": 3 * num_partitions,
                "sdur_tput": round(sdur["tput"], 0),
                "sdur_speedup": round(sdur["tput"] / base_tput, 2),
                "classic_dur_tput": round(classic["tput"], 0),
                "sdur_avg_ms": round(sdur["avg_ms"], 2),
                "classic_avg_ms": round(classic["avg_ms"], 2),
            }
        )
    return ExperimentTable(
        experiment_id="S1",
        title="Scalability with partitions, local-only workload (DSN 2012, reconstructed)",
        rows=rows,
        notes=[
            "SDUR throughput should grow ~linearly with partitions; classic DUR "
            "(one group over the same servers) stays flat at the single-core ceiling"
        ],
    )


def run_s2(quick: bool = False) -> ExperimentTable:
    fractions = (0.0, 0.05, 0.20, 0.50) if quick else (0.0, 0.01, 0.05, 0.10, 0.20, 0.50)
    num_partitions = 4
    clients_per_partition = 10 if quick else 16
    measure = 2.5 if quick else 8.0
    rows = []
    base = None
    for fraction in fractions:
        result = _run_sdur(num_partitions, fraction, clients_per_partition, measure)
        if base is None:
            base = result["tput"]
        rows.append(
            {
                "globals_pct": round(fraction * 100, 1),
                "tput": round(result["tput"], 0),
                "relative": round(result["tput"] / base, 2),
                "avg_ms": round(result["avg_ms"], 2),
                "aborted": result["aborted"],
            }
        )
    return ExperimentTable(
        experiment_id="S2",
        title="Throughput vs share of global transactions, 4 partitions (DSN 2012, reconstructed)",
        rows=rows,
        notes=[
            "each global consumes certification capacity in two partitions and "
            "stalls the pipeline on votes: aggregate throughput decays with the mix"
        ],
    )
