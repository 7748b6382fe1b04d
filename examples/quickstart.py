#!/usr/bin/env python3
"""Quickstart: a partitioned, replicated, transactional store in ~60 lines.

Builds the paper's WAN 1 deployment (two partitions, three replicas
each, majorities in different regions), runs a couple of hand-written
transactions — one local, one global — and prints what happened.

Run:  python examples/quickstart.py
"""

from repro.core.client import Read, ReadMany
from repro.core.config import SdurConfig
from repro.core.partitioning import PartitionMap
from repro.geo.deployments import wan1_deployment
from repro.harness.cluster import build_cluster
from repro.net.topology import EU


def main() -> None:
    # 1. Deployment: 2 partitions x 3 replicas across EU and US-EAST.
    deployment = wan1_deployment(num_partitions=2)
    partition_map = PartitionMap.by_index(2)  # "0/..." -> p0, "1/..." -> p1
    cluster = build_cluster(deployment, partition_map, SdurConfig(), seed=42)

    # 2. Seed some data (replicated to every server of each key's partition).
    cluster.seed({"0/alice": 100, "0/bob": 50, "1/carol": 75})

    # 3. A client in the EU, next to partition p0's preferred server.
    client = cluster.add_client(region=EU)
    cluster.start()
    results = []

    # 4. A LOCAL transaction: both keys live in partition p0.
    def transfer(txn):
        values = yield ReadMany(("0/alice", "0/bob"))
        txn.write("0/alice", values["0/alice"] - 10)
        txn.write("0/bob", values["0/bob"] + 10)

    client.execute(transfer, results.append, label="transfer")
    cluster.world.run_for(2.0)  # drive the simulation until it completes

    # 5. A GLOBAL transaction: touches p0 and p1, terminated with the
    #    two-phase-commit-like vote exchange between partitions.
    def cross_partition(txn):
        alice = yield Read("0/alice")
        carol = yield Read("1/carol")
        txn.write("0/alice", alice - 5)
        txn.write("1/carol", carol + 5)

    client.execute(cross_partition, results.append, label="cross")
    cluster.world.run_for(2.0)

    # 6. A READ-ONLY transaction: commits without certification, against
    #    a globally-consistent snapshot.  (Had we run it concurrently with
    #    the updates above, SDUR's optimistic certification would have
    #    aborted conflicting writers instead of blocking anyone.)
    def audit(txn):
        values = yield ReadMany(("0/alice", "0/bob", "1/carol"))
        total = sum(v for v in values.values() if v is not None)
        assert total == 225, f"money was created or destroyed: {total}"

    client.execute(audit, results.append, read_only=True, label="audit")
    cluster.world.run_for(2.0)

    for result in results:
        kind = "global" if result.is_global else "local"
        print(
            f"{result.label:>8}: {result.outcome.value:>6} "
            f"({kind}, {result.latency * 1000:.1f} ms, partitions={list(result.partitions)})"
        )
    assert all(r.committed for r in results), "all three transactions should commit"
    print("\nfinal state, read from a p0 replica:")
    server = cluster.servers["s1"].server
    for key in ("0/alice", "0/bob"):
        _, value = server.store.read_latest(key)
        print(f"  {key} = {value}")


if __name__ == "__main__":
    main()
