"""SDUR beyond two partitions: wide deployments and wide transactions."""

from repro.checker.agreement import replica_agreement
from repro.checker.serializability import check_serializability
from repro.core.config import SdurConfig
from repro.core.partitioning import PartitionMap
from repro.geo.deployments import wan1_deployment
from repro.harness.cluster import build_cluster
from tests.conftest import make_cluster, run_txn, update_program


class TestFourPartitionsLan:
    def test_wide_global_commits_atomically(self):
        cluster = make_cluster(num_partitions=4)
        cluster.seed({f"{p}/k": 0 for p in range(4)})
        client = cluster.add_client()
        cluster.start()
        cluster.world.run_for(0.5)
        result = run_txn(cluster, client, update_program([f"{p}/k" for p in range(4)]))
        assert result.committed
        assert result.partitions == ("p0", "p1", "p2", "p3")
        cluster.world.run_for(1.0)
        for partition in ("p0", "p1", "p2", "p3"):
            server = cluster.servers[cluster.directory.preferred_of(partition)].server
            index = partition[1:]
            assert server.store.read_latest(f"{index}/k")[1] == 1

    def test_one_abort_vote_kills_the_whole_global(self):
        """A conflict in any single partition aborts the transaction in
        all of them (unanimity)."""
        cluster = make_cluster(num_partitions=3)
        cluster.seed({f"{p}/k{i}": 0 for p in range(3) for i in range(2)})
        wide_client = cluster.add_client()
        local_client = cluster.add_client()
        cluster.start()
        cluster.world.run_for(0.5)
        done = []
        # The local txn conflicts with the wide one only in p2.
        wide_client.execute(update_program(["0/k0", "1/k0", "2/k0"]), done.append)
        local_client.execute(update_program(["2/k0", "2/k1"]), done.append)
        cluster.world.run_for(3.0)
        outcomes = sorted(r.outcome.value for r in done)
        assert outcomes == ["abort", "commit"]
        # Whatever won, stores agree pairwise and no partial application:
        p0_value = cluster.servers["s1"].server.store.read_latest("0/k0")[1] or 0
        p1_value = cluster.servers["s4"].server.store.read_latest("1/k0")[1] or 0
        assert p0_value == p1_value  # the wide txn applied everywhere or nowhere

    def test_mixed_width_workload_serializable(self):
        cluster = make_cluster(num_partitions=4, config=SdurConfig(reorder_threshold=4))
        clients = [cluster.add_client() for _ in range(4)]
        cluster.start()
        recorder = cluster.attach_recorder()
        cluster.world.run_for(0.5)
        rng = cluster.world.rng.stream("wide")
        done = []
        for i in range(60):
            client = clients[i % 4]
            width = rng.choice([1, 1, 2, 3, 4])
            partitions = rng.sample(range(4), width)
            keys = [f"{p}/k{rng.randrange(4)}" for p in partitions]
            client.execute(update_program(keys), done.append)
            cluster.world.run_for(0.01)
        cluster.world.run_for(5.0)
        for result in done:
            recorder.record_result(result)
        assert len(done) == 60
        check_serializability(recorder).raise_if_failed()
        replica_agreement(recorder, cluster.replica_counts()).raise_if_failed()


class TestFourPartitionsWan:
    def test_wan1_with_four_partitions_and_reordering(self):
        deployment = wan1_deployment(4)
        cluster = build_cluster(
            deployment,
            PartitionMap.by_index(4),
            SdurConfig(reorder_threshold=8),
            seed=13,
        )
        clients = [cluster.add_client(region=deployment.preferred_region[p]) for p in deployment.partition_ids]
        cluster.start()
        recorder = cluster.attach_recorder()
        cluster.world.run_for(1.0)
        rng = cluster.world.rng.stream("wan4")
        done = []
        for i in range(24):
            client = clients[i % 4]
            home = i % 4
            if rng.random() < 0.3:
                other = (home + 1 + rng.randrange(3)) % 4
                keys = [f"{home}/k{rng.randrange(4)}", f"{other}/k{rng.randrange(4)}"]
            else:
                keys = [f"{home}/k{rng.randrange(4)}", f"{home}/k{4 + rng.randrange(4)}"]
            client.execute(update_program(keys), done.append)
            cluster.world.run_for(0.05)
        cluster.world.run_for(8.0)
        assert len(done) == 24
        committed = [r for r in done if r.committed]
        assert committed
        for result in done:
            recorder.record_result(result)
        check_serializability(recorder).raise_if_failed()
        replica_agreement(recorder, cluster.replica_counts()).raise_if_failed()
