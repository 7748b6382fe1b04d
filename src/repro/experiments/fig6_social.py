"""F6 — the social network application (the paper's Figure 6).

The Twitter-like workload (85 % timeline, 7.5 % post, 7.5 % follow;
follows global with 50 % probability) runs in WAN 1 and WAN 2, baseline
vs reordering (the paper uses R=70 in WAN 1 and R=20 in WAN 2), reporting
throughput and per-operation latency.

Shape criteria: in WAN 1 reordering improves every operation's 99th
percentile (paper: timeline 67 %, post 70 %, local follow 71 %, global
follow 12 %); in WAN 2 timeline/post/local-follow improve (55 %/20 %/21 %)
while global follow stays flat.  Timelines are global *read-only*
transactions served from globally-consistent snapshots, so they never
abort and never certify.
"""

from __future__ import annotations

import random

from repro.core.config import SdurConfig
from repro.core.partitioning import PartitionMap
from repro.experiments.common import ExperimentTable
from repro.geo.deployments import wan1_deployment, wan2_deployment
from repro.harness.cluster import build_cluster
from repro.harness.driver import run_experiment
from repro.workload.social import SocialNetworkWorkload, generate_social_data

#: The paper picked R=70 (WAN 1) and R=20 (WAN 2) at its delivery rates;
#: scaled to ours (see fig4_reorder_wan1 docstring).
PAPER_THRESHOLDS = {"wan1": 8, "wan2": 2}

OPERATION_LABELS = ("timeline", "post", "follow", "follow-global")


def _run_one(
    deployment_name: str,
    reorder_threshold: int,
    num_users: int,
    clients_per_partition: int,
    warmup: float,
    measure: float,
) -> dict[str, dict]:
    deployment = (
        wan1_deployment(2) if deployment_name == "wan1" else wan2_deployment(2)
    )
    num_partitions = len(deployment.partition_ids)
    config = SdurConfig(reorder_threshold=reorder_threshold)
    cluster = build_cluster(
        deployment,
        PartitionMap.by_index(num_partitions),
        config,
        seed=61,
        jitter_fraction=0.1,
    )
    data = generate_social_data(num_users, follows_per_user=8, rng=random.Random(7))
    cluster.seed(data)
    pairs = []
    for partition in deployment.partition_ids:
        region = deployment.preferred_region[partition]
        home_index = int(partition[1:])
        for _ in range(clients_per_partition):
            client = cluster.add_client(region=region)
            workload = SocialNetworkWorkload(
                num_users=num_users,
                num_partitions=num_partitions,
                home_partition_index=home_index,
            )
            pairs.append((client, workload))
    run = run_experiment(cluster, pairs, warmup=warmup, measure=measure)
    out: dict[str, dict] = {}
    total = run.summary()
    out["_total"] = {"tput": total.throughput, "aborted": total.aborted}
    for label in OPERATION_LABELS:
        summary = run.summary(label=label)
        out[label] = {
            "tput": summary.throughput,
            "avg_ms": summary.latency.ms("mean"),
            "p99_ms": summary.latency.ms("p99"),
            "committed": summary.committed,
            "aborted": summary.aborted,
        }
    return out


def run(quick: bool = False) -> ExperimentTable:
    num_users = 600 if quick else 2_000
    clients = 6 if quick else 8
    warmup, measure = (2.0, 12.0) if quick else (3.0, 30.0)
    rows = []
    for deployment_name in ("wan1", "wan2"):
        threshold = PAPER_THRESHOLDS[deployment_name]
        for mode, reorder in (("baseline", 0), (f"reorder R={threshold}", threshold)):
            stats = _run_one(
                deployment_name, reorder, num_users, clients, warmup, measure
            )
            for label in OPERATION_LABELS:
                op = stats[label]
                rows.append(
                    {
                        "deployment": deployment_name,
                        "mode": mode,
                        "operation": label,
                        "tput": round(stats["_total"]["tput"], 1),
                        "avg_ms": round(op["avg_ms"], 1),
                        "p99_ms": round(op["p99_ms"], 1),
                        "committed": op["committed"],
                        "aborted": op["aborted"],
                    }
                )
    return ExperimentTable(
        experiment_id="F6",
        title="Social network application in WAN 1 / WAN 2 (Figure 6)",
        rows=rows,
        notes=[
            "paper p99 gains from reordering — WAN1: timeline 67%, post 70%, "
            "follow 71%, follow-global 12%; WAN2: 55%/20%/21%/flat",
            "timeline is a global read-only transaction: snapshot reads, no "
            "certification, never aborts",
        ],
    )
