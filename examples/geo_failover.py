#!/usr/bin/env python3
"""Fault tolerance: datacenter failures, leader failover, and the
abort-request recovery protocol (paper §II-A, §IV-F).

Three scenes, all on the WAN 2 deployment (which survives region loss):

1. Crash a follower replica — commits continue unaffected (Paxos needs
   only a majority).
2. Crash a partition's *leader* — the heartbeat oracle elects the next
   replica, Phase 1 recovers in-flight instances, commits resume.
3. Crash a coordinator mid-submit of a global transaction, so one
   partition delivers it and the other never does — the delivering
   partition times out waiting for votes and broadcasts an abort
   request; the transaction aborts everywhere instead of blocking the
   pipeline forever.

Run:  python examples/geo_failover.py
"""

from repro.consensus.replica import PaxosConfig
from repro.core.client import ReadMany
from repro.core.config import SdurConfig
from repro.core.messages import CommitRequest
from repro.core.partitioning import PartitionMap
from repro.core.transaction import Outcome
from repro.geo.deployments import wan2_deployment
from repro.harness.cluster import build_cluster
from repro.net.topology import EU


def update_two(key_a: str, key_b: str):
    def program(txn):
        values = yield ReadMany((key_a, key_b))
        txn.write(key_a, (values[key_a] or 0) + 1)
        txn.write(key_b, (values[key_b] or 0) + 1)

    return program


def build(vote_timeout: float = 1.0):
    deployment = wan2_deployment(num_partitions=2)
    config = SdurConfig(vote_timeout=vote_timeout, notify_all_replicas=True)
    cluster = build_cluster(
        deployment,
        PartitionMap.by_index(2),
        config,
        seed=5,
        # Elected (not pinned) leaders so failover is possible.
        paxos_for=lambda _node, _partition: PaxosConfig(
            static_leader=None, heartbeat_interval=0.05, suspect_timeout=0.3
        ),
    )
    client = cluster.add_client(region=EU, commit_timeout=2.0, read_timeout=1.0)
    cluster.start()
    cluster.world.run_for(2.0)  # let elections settle
    return cluster, client


def commit_one(cluster, client, program, label):
    results = []
    client.execute(program, results.append, label=label)
    cluster.world.run_for(8.0)
    result = results[0] if results else None
    status = result.outcome.value if result else "NO OUTCOME"
    latency = f"{result.latency * 1000:.0f} ms" if result else "-"
    print(f"  {label:<28} -> {status:<7} ({latency})")
    return result


def main() -> None:
    print("scene 1: follower crash is harmless")
    cluster, client = build()
    commit_one(cluster, client, update_two("0/x", "0/y"), "before crash")
    cluster.crash_server("s2")  # a follower of p0
    result = commit_one(cluster, client, update_two("0/x", "0/y"), "after follower crash")
    assert result and result.committed

    print("scene 2: leader crash triggers re-election")
    cluster, client = build()
    commit_one(cluster, client, update_two("0/x", "0/y"), "before crash")
    leader = cluster.servers["s1"].replica.leader
    print(f"  crashing p0 leader {leader} ...")
    cluster.crash_server(leader)
    result = commit_one(cluster, client, update_two("0/x", "0/y"), "after leader crash")
    assert result and result.committed
    new_leader = next(
        handle.replica.leader
        for node, handle in cluster.servers.items()
        if handle.partition == "p0" and node != leader
    )
    print(f"  new p0 leader: {new_leader}")

    print("scene 3: orphaned global transaction is aborted via abort-request")
    cluster, client = build(vote_timeout=0.5)
    # Build a global commit request, then deliver it to ONLY one partition,
    # simulating a coordinator that crashed between the two broadcasts.
    request_box = []
    victim = cluster.servers["s4"].server  # p1's preferred server

    def capture(src, msg, inner=victim.handle):
        if isinstance(msg, CommitRequest):
            request_box.append(msg)
            # Deliver only p1's projection; p0 never hears of it.
            victim.fabric.abcast("p1", msg.projections["p1"])
            return True
        return inner(src, msg)

    results = []
    client.config = client.config.__class__(
        session_server="s4", commit_timeout=None
    )
    original_handle, victim_handle = victim.handle, capture
    cluster.world.network.register(
        "s4",
        lambda src, msg: (
            victim_handle(src, msg)
            if isinstance(msg, CommitRequest)
            else cluster.servers["s4"].replica.handle(src, msg)
            or original_handle(src, msg)
        ),
    )
    client.execute(update_two("0/a", "1/b"), results.append, label="orphaned global")
    cluster.world.run_for(10.0)
    result = results[0] if results else None
    print(f"  orphaned global -> {result.outcome.value if result else 'stuck'}")
    assert result is not None and result.outcome is Outcome.ABORT
    p1_stats = cluster.servers["s4"].server.stats
    print(f"  p1 aborted (recovery/votes): {p1_stats.aborted}")
    print("\nall scenes passed")


if __name__ == "__main__":
    main()
