"""System-level differential: the key index vs the scan oracle.

Two seed-matched WAN 1 runs — one untouched, one with every replica's
certifier swapped for ``tests.oracles.scan_certifier.ScanCertifier``
before ``start()`` — must be indistinguishable to clients and leave
byte-identical stores.  Certification decides commit order at every
replica, so this is the cluster-wide form of the per-query equivalence
``tests/properties/test_prop_certindex.py`` pins (it replaces ablation
A7, whose subject was the server-side SCAN switch).  The reorder
threshold is on so ``find_reorder_position`` is exercised; the bloom
case drives the index's per-record fallback.
"""

import pytest

from repro.core.config import SdurConfig
from repro.core.partitioning import PartitionMap
from repro.geo.deployments import wan1_deployment
from repro.harness.cluster import build_cluster
from repro.harness.driver import run_experiment
from repro.workload.microbench import MicroBenchmark

from tests.oracles.scan_certifier import ScanCertifier

NUM_PARTITIONS = 2


def install_scan(cluster):
    for handle in cluster.servers.values():
        server = handle.server
        server.certifier = ScanCertifier(server.window, server.pending, server.stats)


def run(bloom: bool, oracle=None):
    """One seeded run; ``oracle(cluster)`` swaps a reference
    implementation in before ``start()``."""
    deployment = wan1_deployment(NUM_PARTITIONS)
    cluster = build_cluster(
        deployment,
        PartitionMap.by_index(NUM_PARTITIONS),
        SdurConfig(reorder_threshold=4),
        seed=7,
        jitter_fraction=0.1,
    )
    pairs = []
    for partition in deployment.partition_ids:
        for _ in range(3):
            client = cluster.add_client(
                region=deployment.preferred_region[partition], bloom_readsets=bloom
            )
            workload = MicroBenchmark(
                num_partitions=NUM_PARTITIONS,
                home_partition_index=int(partition[1:]),
                global_fraction=0.2,
                items_per_partition=40,  # small: real conflicts and aborts
            )
            pairs.append((client, workload))
    if oracle is not None:
        oracle(cluster)
    result = run_experiment(cluster, pairs, warmup=0.0, measure=4.0, drain=3.0)
    outcomes = [
        (r.tid, r.outcome, r.finished, r.abort_reason) for r in result.collector.results
    ]
    stores = {
        node_id: handle.server.store.dump() for node_id, handle in cluster.servers.items()
    }
    return outcomes, stores, result


@pytest.mark.parametrize("bloom", [False, True], ids=["exact", "bloom"])
def test_scan_oracle_cluster_matches_index(bloom):
    index_outcomes, index_stores, index_run = run(bloom)
    scan_outcomes, scan_stores, scan_run = run(bloom, oracle=install_scan)
    assert scan_outcomes == index_outcomes
    assert scan_stores == index_stores
    # The run must have exercised what it claims to compare.
    committed = sum(1 for _, outcome, _, _ in index_outcomes if outcome.value == "commit")
    assert 0 < committed < len(index_outcomes)
    assert index_run.counter("reordered") > 0
    assert index_run.counter("index_hits") > 0 and scan_run.counter("index_hits") == 0
    if bloom:
        assert index_run.counter("index_fallbacks") > 0
