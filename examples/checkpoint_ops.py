#!/usr/bin/env python3
"""Operations: checkpoints, WAL compaction, and replica replacement.

The paper recovers a server by replaying its whole Berkeley DB log (§V);
this example shows the production-shaped version this repository adds on
top: periodic checkpoints bound both the log and the recovery time, and
the same checkpoint blob bootstraps a *replacement* replica that never
saw the old history.

Run:  python examples/checkpoint_ops.py
"""

from repro.consensus.replica import PaxosConfig
from repro.core.checkpoint import ServerCheckpoint
from repro.core.client import ReadMany
from repro.core.config import SdurConfig
from repro.core.partitioning import PartitionMap
from repro.geo.deployments import lan_deployment
from repro.harness.cluster import build_cluster
from repro.storage.wal import WriteAheadLog


def build(wals, seed):
    deployment = lan_deployment(2)

    def paxos_for(node_id, partition):
        wals.setdefault(node_id, WriteAheadLog())
        return PaxosConfig(
            static_leader=deployment.directory.preferred_of(partition),
            wal=wals[node_id],
        )

    return build_cluster(
        deployment,
        PartitionMap.by_index(2),
        SdurConfig(checkpoint_interval=0.25),
        seed=seed,
        intra_delay=0.001,
        paxos_for=paxos_for,
    )


def bump(keys):
    def program(txn):
        values = yield ReadMany(tuple(keys))
        for key in keys:
            txn.write(key, (values[key] or 0) + 1)

    return program


def main() -> None:
    wals: dict[str, WriteAheadLog] = {}
    cluster = build(wals, seed=11)
    client = cluster.add_client()
    cluster.start()
    cluster.world.run_for(0.5)

    print("1. committing 20 transactions ...")
    done = []
    for i in range(20):
        client.execute(bump([f"0/counter{i % 4}"]), done.append)
        cluster.world.run_for(0.05)
    cluster.world.run_for(1.0)
    assert all(r.committed for r in done)
    s1 = cluster.servers["s1"].server
    print(f"   s1: SC={s1.sc}, WAL records={len(wals['s1'])}, "
          f"checkpoints taken={s1.stats.checkpoints}")
    assert len(wals["s1"]) < 20, "WAL should have been compacted"

    checkpoint = ServerCheckpoint.from_bytes(s1.latest_checkpoint)
    print(f"   latest checkpoint covers instances < {checkpoint.next_instance}, "
          f"SC={checkpoint.sc}, {len(dict(checkpoint.chains))} keys")

    print("2. whole-cluster restart: checkpoint + WAL suffix ...")
    blobs = {name: h.server.latest_checkpoint for name, h in cluster.servers.items()}
    restarted = build(wals, seed=12)
    for name in restarted.servers:
        if blobs[name] is not None:
            restarted.restore_server(name, blobs[name])
    restarted.start()
    restarted.world.run_for(1.0)
    _, value = restarted.servers["s1"].server.store.read_latest("0/counter0")
    print(f"   recovered s1: SC={restarted.servers['s1'].server.sc}, counter0={value}")

    print("3. replacing replica s2 from a peer checkpoint (state transfer) ...")
    surviving = {name: wal for name, wal in wals.items() if name != "s2"}
    replaced = build(surviving, seed=13)
    for name in replaced.servers:
        if name == "s2":
            replaced.restore_server("s2", blobs["s1"])  # peer's checkpoint
        elif blobs[name] is not None:
            replaced.restore_server(name, blobs[name])
    replaced.start()
    replaced.world.run_for(1.0)
    fresh = replaced.servers["s2"].server
    print(f"   fresh s2: SC={fresh.sc} (never replayed old history)")

    new_client = replaced.add_client()
    results = []
    new_client.execute(bump(["0/counter0"]), results.append)
    replaced.world.run_for(1.0)
    assert results and results[0].committed
    _, value = fresh.store.read_latest("0/counter0")
    print(f"   and it serves new commits: counter0 -> {value}")
    print("\nall steps passed")


if __name__ == "__main__":
    main()
