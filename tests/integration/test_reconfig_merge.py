"""Live partition merge under a running workload (elastic consolidation).

The mirror image of ``test_reconfig_split``: a 2-partition cluster
absorbs ``p1`` into ``p0`` while clients keep committing update
transactions across both key ranges.  No committed transaction may be
lost or double-applied (serializability checker — the merge install is
recorded as a synthetic commit — plus replica agreement), clients must
reroute via stale-epoch retries, and after the merge every replica of
the surviving partition must hold bit-identical store contents while the
absorbed group's stores end up empty.
"""

from repro.checker.agreement import replica_agreement
from repro.checker.serializability import check_serializability
from tests.conftest import make_cluster, run_txn, update_program


def run_merge_workload(merge_at=0.2, num_txns=80, num_clients=3, seed=11):
    cluster = make_cluster(num_partitions=2, seed=seed)
    seeded = {f"0/k{i}": 0 for i in range(12)}
    seeded.update({f"1/k{i}": 0 for i in range(6)})
    cluster.seed(seeded)
    clients = [cluster.add_client() for _ in range(num_clients)]
    cluster.start()
    recorder = cluster.attach_recorder()
    cluster.world.run_for(0.5)

    cluster.world.kernel.schedule(merge_at, cluster.merge_partitions, "p1", "p0")

    rng = cluster.world.rng.stream("merge-workload")
    done = []

    def issue(client, remaining):
        # Both ranges stay busy; ~20% of transactions are global, so
        # some globals are mid-flight when the merge lands.
        if rng.random() < 0.2:
            keys = [f"0/k{rng.randrange(12)}", f"1/k{rng.randrange(6)}"]
        elif rng.random() < 0.5:
            keys = sorted({f"1/k{rng.randrange(6)}" for _ in range(2)})
        else:
            keys = sorted({f"0/k{rng.randrange(12)}" for _ in range(2)})

        def on_done(result):
            done.append(result)
            if remaining > 1:
                issue(client, remaining - 1)

        client.execute(update_program(keys), on_done)

    for client in clients:
        issue(client, num_txns)
    cluster.world.run_for(30.0)
    for result in done:
        recorder.record_result(result)
    return cluster, clients, recorder, done, seeded


def absorbed_stores(cluster, partition="p1"):
    return [
        handle.server.store
        for handle in cluster.servers.values()
        if handle.partition == partition
    ]


class TestLiveMerge:
    def test_merge_under_load_preserves_serializability(self):
        cluster, clients, recorder, done, seeded = run_merge_workload()

        # The merge actually happened mid-workload.
        assert cluster.routing.epoch == 1
        assert cluster.routing.retired == {"p1"}
        assert cluster.routing.active_partitions() == ["p0"]

        # Every issued transaction completed (no wedged clients).
        assert len(done) == 3 * 80
        committed = [r for r in done if r.committed]
        assert committed, "nothing committed"

        # No committed transaction lost or double-applied.
        check_serializability(recorder).raise_if_failed()
        replica_agreement(recorder, cluster.replica_counts()).raise_if_failed()

        # Clients rerouted via the stale-epoch protocol and none gave up.
        assert sum(c.stats.epoch_retries for c in clients) >= 1
        assert not any(
            r.abort_reason and "retry limit" in r.abort_reason for r in done
        )

    def test_surviving_replicas_hold_identical_stores(self):
        cluster, clients, recorder, done, seeded = run_merge_workload()
        dumps = [
            handle.server.store.dump()
            for handle in cluster.servers.values()
            if handle.partition == "p0"
        ]
        assert len(dumps) == 3
        assert dumps[0] == dumps[1] == dumps[2]
        # The absorbed keys live at the survivor; the absorbed group's
        # stores were evicted down to nothing at FinishSplit.
        assert any(key.startswith("1/") for key in dumps[0])
        for store in absorbed_stores(cluster):
            assert store.dump() == {}

    def test_absorbed_range_served_by_survivor_after_merge(self):
        cluster, clients, recorder, done, seeded = run_merge_workload()
        client = clients[0]

        # A transaction across both old ranges is now single-partition.
        result = run_txn(cluster, client, update_program(["0/k0", "1/k0"]))
        assert result.committed
        assert result.partitions == ("p0",)

        survivor = next(
            h.server.store
            for h in cluster.servers.values()
            if h.partition == "p0"
        )
        cluster.world.run_for(1.0)
        before = survivor.read_latest("1/k1")[1]
        result = run_txn(cluster, client, update_program(["1/k1"]))
        assert result.committed
        assert result.partitions == ("p0",)
        cluster.world.run_for(1.0)
        assert survivor.read_latest("1/k1")[1] == before + 1

    def test_merge_without_load_is_clean(self):
        cluster = make_cluster(num_partitions=2, seed=3)
        cluster.seed({f"0/k{i}": i for i in range(8)})
        cluster.seed({f"1/k{i}": 10 + i for i in range(8)})
        cluster.start()
        cluster.world.run_for(0.5)
        change = cluster.merge_partitions(absorbed="p1", into="p0")
        assert change.is_merge
        cluster.world.run_for(5.0)

        for handle in cluster.servers.values():
            if handle.partition == "p0":
                server = handle.server
                assert server.routing.epoch == 1
                # The flattened absorbed state landed as one install
                # version, preserving the seeded values.
                for i in range(8):
                    assert server.store.read_latest(f"1/k{i}")[1] == 10 + i
        for store in absorbed_stores(cluster):
            assert store.dump() == {}

    def test_split_then_merge_round_trips_routing(self):
        cluster = make_cluster(num_partitions=2, seed=5)
        cluster.seed({f"0/k{i}": i for i in range(10)})
        cluster.start()
        cluster.world.run_for(0.5)
        cluster.split_partition("p0")
        cluster.world.run_for(5.0)
        assert cluster.routing.active_partitions() == ["p0", "p1", "p2"]
        cluster.merge_partitions(absorbed="p2", into="p0")
        cluster.world.run_for(5.0)

        # Routing is back to the seed map: every key of block 0 on p0.
        assert cluster.routing.active_partitions() == ["p0", "p1"]
        for i in range(10):
            assert cluster.routing.partition_map.partition_of(f"0/k{i}") == "p0"
        # And the data followed: all ten keys back at the survivor,
        # identical across its replicas.
        dumps = [
            h.server.store.dump()
            for h in cluster.servers.values()
            if h.partition == "p0"
        ]
        assert dumps[0] == dumps[1] == dumps[2]
        for i in range(10):
            assert f"0/k{i}" in dumps[0]
