"""What ordering votes through the log costs, priced against the oracle.

Seed-matched pairs of runs on the Figure-1 WAN deployments — one
untouched, one with every replica's ``server.ledger`` swapped for
``tests.oracles.optimistic_termination.OptimisticTermination`` before
``start()`` — replace ablation A6, whose subject was the server-side
OPTIMISTIC switch (the PR 13 pattern, ``test_scan_oracle_cluster.py``).
WAN 1 also runs with reordering on, the setting whose arrival-time
divergence motivated the ledger (``test_vote_ledger_regression.py``).

Shape criteria: the ledger orders a vote record for every vote while the
oracle orders none; its partitions' logs carry strictly more proposals;
and an unloaded WAN 1 global commit costs exactly two local broadcasts
(4δ) more — the whole difference between Figure 1's 4δ + 2Δ and the
shipped system's 8δ + 2Δ (docs/PROTOCOL.md §14.4).
"""

from unittest.mock import patch

import pytest

from repro.consensus.abcast import AbcastFabric
from repro.core.config import SdurConfig
from repro.core.partitioning import PartitionMap
from repro.geo.deployments import wan1_deployment, wan2_deployment
from repro.harness.cluster import build_cluster
from repro.harness.driver import run_experiment
from repro.workload.microbench import MicroBenchmark

from tests.integration.test_latency_model import DELTA, measure
from tests.oracles import optimistic_termination

NUM_PARTITIONS = 2


def run(deployment_name: str, reorder_threshold: int, oracle: bool):
    """One run and the number of values every server handed to a
    partition's broadcast (duplicates from retry timers included),
    counted by wrapping ``AbcastFabric.abcast`` before anything binds it
    — the vote ledger keeps the bound method it was built with."""
    proposals = 0
    abcast = AbcastFabric.abcast

    def counting(fabric, partition, value):
        nonlocal proposals
        proposals += 1
        abcast(fabric, partition, value)

    with patch.object(AbcastFabric, "abcast", counting):
        result = _run(deployment_name, reorder_threshold, oracle)
    return result, proposals


def _run(deployment_name: str, reorder_threshold: int, oracle: bool):
    build = wan1_deployment if deployment_name == "wan1" else wan2_deployment
    deployment = build(NUM_PARTITIONS)
    cluster = build_cluster(
        deployment,
        PartitionMap.by_index(NUM_PARTITIONS),
        SdurConfig(reorder_threshold=reorder_threshold),
        seed=7,
        jitter_fraction=0.1,
    )
    pairs = []
    for partition in deployment.partition_ids:
        for _ in range(4):
            client = cluster.add_client(region=deployment.preferred_region[partition])
            workload = MicroBenchmark(
                num_partitions=NUM_PARTITIONS,
                home_partition_index=int(partition[1:]),
                global_fraction=0.2,
                items_per_partition=400,
            )
            pairs.append((client, workload))
    if oracle:
        optimistic_termination.install(cluster)
    return run_experiment(cluster, pairs, warmup=1.0, measure=5.0, drain=4.0)


@pytest.mark.parametrize(
    "deployment,reorder_threshold",
    [("wan1", 0), ("wan1", 4), ("wan2", 0)],
    ids=["wan1-rt0", "wan1-rt4", "wan2-rt0"],
)
def test_ledger_orders_votes_and_pays_log_traffic(deployment, reorder_threshold):
    ledger, ledger_proposals = run(deployment, reorder_threshold, oracle=False)
    oracle, oracle_proposals = run(deployment, reorder_threshold, oracle=True)
    for result in (ledger, oracle):
        assert result.summary(is_global=True).committed > 0
        assert result.summary(is_global=False).committed > 0
    # The ledger sequences votes; the oracle never does.
    assert oracle.counter("votes_ordered") == 0
    assert ledger.counter("votes_ordered") > 0
    # Re-sequencing votes costs log traffic …
    assert ledger_proposals > oracle_proposals
    # … and latency on the global path (the analytical delta is two
    # local broadcasts; load noise keeps this loose).
    assert (
        ledger.summary(is_global=True).latency.mean
        > oracle.summary(is_global=True).latency.mean
    )
    assert ledger.counter("vote_ledger_aborts") <= ledger.summary().aborted


def test_unloaded_wan1_global_costs_exactly_two_local_broadcasts_more():
    ledger = measure("wan1", is_global=True)
    oracle = measure("wan1", is_global=True, optimistic_oracle=True)
    assert ledger - oracle == pytest.approx(4 * DELTA, abs=1e-6)
