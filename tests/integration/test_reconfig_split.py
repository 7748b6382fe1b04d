"""Live partition split under a running workload (elastic repartitioning).

The acceptance scenario for the reconfiguration subsystem: a 2-partition
cluster splits its hot partition into a third while clients keep
committing update transactions.  No committed transaction may be lost or
double-applied (serializability checker + replica agreement), and
clients must reroute transparently via stale-epoch retries.

The workload is update-only: multi-partition read-only snapshot vectors
spanning a split are a documented limitation (see docs/PROTOCOL.md,
"Reconfiguration epochs").
"""

from collections import defaultdict

from repro.checker.agreement import replica_agreement
from repro.checker.serializability import check_serializability
from repro.core.messages import ReadResponse
from repro.harness.faults import FaultSchedule
from repro.reconfig import key_moves
from tests.conftest import make_cluster, run_txn, update_program


def run_split_workload(split_at=0.2, num_txns=80, num_clients=3, seed=11):
    cluster = make_cluster(num_partitions=2, seed=seed)
    seeded = {f"0/k{i}": 0 for i in range(12)}
    seeded.update({f"1/k{i}": 0 for i in range(6)})
    cluster.seed(seeded)
    clients = [cluster.add_client() for _ in range(num_clients)]
    cluster.start()
    recorder = cluster.attach_recorder()
    cluster.world.run_for(0.5)

    schedule = FaultSchedule().split(cluster.world.now + split_at, "p0")
    schedule.arm(cluster)

    rng = cluster.world.rng.stream("split-workload")
    done = []

    def issue(client, remaining):
        # Hot on partition 0; ~20% of transactions are global.
        if rng.random() < 0.2:
            keys = [f"0/k{rng.randrange(12)}", f"1/k{rng.randrange(6)}"]
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


class TestLiveSplit:
    def test_split_under_load_preserves_serializability(self):
        cluster, clients, recorder, done, seeded = run_split_workload()

        # The split actually happened mid-workload.
        assert cluster.routing.epoch == 1
        assert set(cluster.directory.partition_ids) == {"p0", "p1", "p2"}
        salt = cluster.routing.changes[0].split_salt
        moved = [k for k in seeded if k.startswith("0/") and key_moves(k, salt)]
        assert moved, "salt moved no seeded keys"

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

    def test_moved_keys_served_by_new_partition_and_evicted_at_source(self):
        cluster, clients, recorder, done, seeded = run_split_workload()
        salt = cluster.routing.changes[0].split_salt
        moved = [k for k in seeded if k.startswith("0/") and key_moves(k, salt)]
        source_store = cluster.servers["s1"].server.store
        new_store = cluster.servers["s7"].server.store
        for key in moved:
            assert key not in source_store, f"{key} not evicted at source"
            assert key in new_store, f"{key} missing at new partition"

        # The new partition serves reads and commits for its range.
        client = clients[0]
        result = run_txn(cluster, client, update_program([moved[0]]))
        assert result.committed
        assert result.partitions == ("p2",)
        cluster.world.run_for(1.0)
        before = new_store.read_latest(moved[0]).value

        result = run_txn(cluster, client, update_program([moved[0]]))
        assert result.committed
        cluster.world.run_for(1.0)
        assert new_store.read_latest(moved[0]).value == before + 1

    def test_globals_across_old_and_new_partition_commit(self):
        cluster, clients, recorder, done, seeded = run_split_workload()
        salt = cluster.routing.changes[0].split_salt
        moved = next(k for k in seeded if k.startswith("0/") and key_moves(k, salt))
        stayed = next(
            k for k in seeded if k.startswith("0/") and not key_moves(k, salt)
        )
        result = run_txn(cluster, clients[0], update_program([moved, stayed]))
        assert result.committed
        assert set(result.partitions) == {"p0", "p2"}

    def test_split_lands_under_in_flight_read_manys(self):
        """A client reads a partition's keys with one request.  When the
        split lands under it, the source serves the keys it kept and
        forwards the moved ones to the new partition under the same op
        id: one request, two answers, and the histories stay clean."""
        cluster = make_cluster(num_partitions=2, seed=10)
        seeded = {f"0/k{i}": 0 for i in range(16)}
        seeded.update({f"1/k{i}": 0 for i in range(4)})
        cluster.seed(seeded)
        clients = [cluster.add_client() for _ in range(4)]
        answered_by = defaultdict(set)
        for client in clients:

            def tap(src, msg, client=client):
                if isinstance(msg, ReadResponse):
                    answered_by[(msg.tid, msg.op_id)].add(msg.partition)
                client.handle(src, msg)

            client.runtime.listen(tap)
        cluster.start()
        recorder = cluster.attach_recorder()
        cluster.world.run_for(0.5)
        FaultSchedule().split(cluster.world.now + 0.2, "p0").arm(cluster)
        rng = cluster.world.rng.stream("split-reads")
        done = []

        def issue(client, remaining):
            keys = sorted({f"0/k{rng.randrange(16)}" for _ in range(3)})
            if rng.random() < 0.2:
                keys.append(f"1/k{rng.randrange(4)}")

            def on_done(result):
                done.append(result)
                if remaining > 1:
                    issue(client, remaining - 1)

            client.execute(update_program(keys), on_done)

        for client in clients:
            issue(client, 40)
        cluster.world.run_for(30.0)
        for result in done:
            recorder.record_result(result)

        assert cluster.routing.epoch == 1
        assert len(done) == 4 * 40 and any(r.committed for r in done)
        split = [op for op, partitions in answered_by.items() if partitions == {"p0", "p2"}]
        assert split, "no request was split across the old and the new partition"
        check_serializability(recorder).raise_if_failed()
        replica_agreement(recorder, cluster.replica_counts()).raise_if_failed()

    def test_split_without_load_is_clean(self):
        cluster = make_cluster(num_partitions=2, seed=3)
        cluster.seed({f"0/k{i}": i for i in range(8)})
        cluster.start()
        cluster.world.run_for(0.5)
        change = cluster.split_partition("p0")
        cluster.world.run_for(5.0)
        moved = [
            f"0/k{i}" for i in range(8) if key_moves(f"0/k{i}", change.split_salt)
        ]
        new_store = cluster.servers["s7"].server.store
        for key in moved:
            chain = new_store.versions_of(key)
            # Chains migrate intact: the seed version (0) with its value.
            assert chain and chain[0].version == 0
        for handle in cluster.servers.values():
            if handle.partition == "p0":
                assert handle.server.routing.epoch == 1
