"""S3 — abort rate vs contention (DSN 2012, reconstructed).

Deferred update replication is optimistic: conflicts surface at
certification as aborts.  This experiment skews the microbenchmark's key
choice with a Zipf distribution over a small item population and sweeps
the skew, for local-only and mixed workloads.

Shape criteria: abort rate grows with skew; adding globals raises it
further because global certification is *symmetric* (readset **and**
writeset checked both ways, §III-B) and globals spend longer pending,
widening their conflict window.
"""

from __future__ import annotations

from repro.core.config import SdurConfig
from repro.core.partitioning import PartitionMap
from repro.experiments.common import ExperimentTable
from repro.geo.deployments import lan_deployment
from repro.harness.cluster import build_cluster
from repro.harness.driver import run_experiment
from repro.workload.distributions import UniformSampler, ZipfSampler
from repro.workload.microbench import MicroBenchmark

THETAS = (None, 0.8, 0.99, 1.2)  # None = uniform
ITEMS = 200  # small population -> measurable contention


def _run(theta: float | None, global_fraction: float, quick: bool) -> dict:
    deployment = lan_deployment(2)
    cluster = build_cluster(
        deployment, PartitionMap.by_index(2), SdurConfig(), seed=81, intra_delay=0.0005
    )
    pairs = []
    for partition in deployment.partition_ids:
        home_index = int(partition[1:])
        for _ in range(8 if quick else 12):
            client = cluster.add_client(region=deployment.preferred_region[partition])
            sampler = (
                UniformSampler(ITEMS) if theta is None else ZipfSampler(ITEMS, theta)
            )
            workload = MicroBenchmark(
                num_partitions=2,
                home_partition_index=home_index,
                global_fraction=global_fraction,
                sampler=sampler,
            )
            pairs.append((client, workload))
    run = run_experiment(
        cluster, pairs, warmup=1.0, measure=4.0 if quick else 10.0, drain=1.0
    )
    total = run.summary()
    return {
        "committed": total.committed,
        "aborted": total.aborted,
        "abort_rate_pct": round(100 * total.abort_rate, 2),
        "tput": round(total.throughput, 0),
    }


def run(quick: bool = False) -> ExperimentTable:
    rows = []
    for global_fraction in (0.0, 0.2):
        for theta in THETAS:
            result = _run(theta, global_fraction, quick)
            rows.append(
                {
                    "key_skew": "uniform" if theta is None else f"zipf {theta}",
                    "globals_pct": round(100 * global_fraction, 0),
                    **result,
                }
            )
    return ExperimentTable(
        experiment_id="S3",
        title="Abort rate vs contention (DSN 2012, reconstructed)",
        rows=rows,
        notes=[
            "abort rate should rise with zipf skew, and rise further with globals "
            "in the mix (symmetric certification + longer pending windows)"
        ],
    )
