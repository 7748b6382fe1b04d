"""Determinism: the property the paper's correctness argument rests on.

Replicas of a partition must apply the same transactions at the same
versions — even with reordering enabled, even when votes reach replicas
at different times (§IV-G.3).  And the whole simulation must be
bit-reproducible from its seed.
"""

from repro.checker.agreement import replica_agreement
from repro.core.config import SdurConfig
from repro.experiments.common import GeoRunParams, run_geo_microbench
from tests.conftest import make_cluster, make_wan1_cluster, run_txn, update_program


def run_mixed_workload(cluster, num_txns=40, seed_tag="d"):
    """Drive interleaved local and global transactions from two clients."""
    clients = [cluster.add_client(), cluster.add_client()]
    cluster.start()
    recorder = cluster.attach_recorder()
    cluster.world.run_for(0.5)
    rng = cluster.world.rng.stream(f"workload.{seed_tag}")
    done = []
    for i in range(num_txns):
        client = clients[i % 2]
        if rng.random() < 0.3:
            keys = [f"0/k{rng.randrange(8)}", f"1/k{rng.randrange(8)}"]
        else:
            home = rng.randrange(2)
            keys = [f"{home}/k{rng.randrange(8)}", f"{home}/k{rng.randrange(8) + 8}"]
        client.execute(update_program(keys), done.append)
        cluster.world.run_for(rng.random() * 0.01)
    cluster.world.run_for(5.0)
    for result in done:
        recorder.record_result(result)
    return recorder, done


class TestReplicaAgreement:
    def test_all_replicas_commit_same_versions_baseline(self):
        cluster = make_cluster(num_partitions=2)
        recorder, done = run_mixed_workload(cluster)
        assert len(done) == 40
        replica_agreement(recorder, cluster.replica_counts()).raise_if_failed()

    def test_all_replicas_commit_same_versions_with_reordering(self):
        cluster = make_cluster(num_partitions=2, config=SdurConfig(reorder_threshold=8))
        recorder, done = run_mixed_workload(cluster)
        replica_agreement(recorder, cluster.replica_counts()).raise_if_failed()

    def test_reordering_on_wan_with_asymmetric_vote_arrival(self):
        """The WAN 1 deployment makes vote arrival times wildly different
        across replicas (same-region vs cross-region); reorder decisions
        must still agree (the §IV-G.3 scenario)."""
        cluster = make_wan1_cluster(config=SdurConfig(reorder_threshold=8))
        recorder, done = run_mixed_workload(cluster)
        committed = [r for r in done if r.committed]
        assert committed, "workload must commit something"
        replica_agreement(recorder, cluster.replica_counts()).raise_if_failed()

    def test_stores_identical_across_replicas(self):
        cluster = make_cluster(num_partitions=2, config=SdurConfig(reorder_threshold=4))
        run_mixed_workload(cluster)
        for partition, members in cluster.directory.partitions.items():
            stores = [cluster.servers[m].server.store for m in members]
            reference = stores[0]
            for store in stores[1:]:
                assert store.current_version == reference.current_version
                for key in reference.dump():
                    assert (
                        store.read_latest(key)[1] == reference.read_latest(key)[1]
                    ), f"divergence on {key} in {partition}"


class TestSeedReproducibility:
    def test_same_seed_same_results(self):
        def run_once():
            result = run_geo_microbench(
                GeoRunParams(
                    deployment="wan1",
                    global_fraction=0.1,
                    clients_per_partition=3,
                    measure=5.0,
                    warmup=1.0,
                    seed=99,
                )
            )
            return (
                result.total.committed,
                result.total.aborted,
                round(result.locals_.latency.p99, 9),
                round(result.globals_.latency.mean, 9),
            )

        assert run_once() == run_once()

    def test_different_seed_different_interleaving(self):
        def run_once(seed):
            result = run_geo_microbench(
                GeoRunParams(
                    deployment="wan1",
                    global_fraction=0.1,
                    clients_per_partition=3,
                    measure=5.0,
                    warmup=1.0,
                    seed=seed,
                )
            )
            return (result.total.committed, round(result.locals_.latency.mean, 9))

        assert run_once(1) != run_once(2)

    def test_single_transaction_latency_reproducible(self):
        def once():
            cluster = make_wan1_cluster(seed=5)
            cluster.seed({"0/a": 0, "1/b": 0})
            client = cluster.add_client(region="eu")
            cluster.start()
            cluster.world.run_for(1.0)
            return run_txn(cluster, client, update_program(["0/a", "1/b"])).latency

        assert once() == once()
